package resilience

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writtenJournal returns the bytes of a journal holding a header and three
// evaluation records.
func writtenJournal(tb testing.TB, dir string) []byte {
	tb.Helper()
	path := filepath.Join(dir, "run.swtj")
	j, err := Create(path, testHeader())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// hugeTail appends a record frame whose length field declares 1<<30-1 bytes,
// followed by a few payload bytes: the tail a corrupted length leaves.
func hugeTail(journal []byte) []byte {
	b := append([]byte(nil), journal...)
	b = binary.LittleEndian.AppendUint32(b, recordManifest)
	b = binary.LittleEndian.AppendUint32(b, 1<<30-1)
	return append(b, "torn payload"...)
}

// readAllocated reads the journal bytes b from a file and returns the
// recovery, the bytes Read allocated and its error.
func readAllocated(tb testing.TB, b []byte) (*Recovery, uint64, error) {
	path := filepath.Join(tb.TempDir(), "j.swtj")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := Read(path)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc, err
}

// TestJournalLengthBoundedByFile: a tail record whose length field runs past
// the end of the file is a torn tail, refused before its declared length is
// allocated; the records before it are intact.
func TestJournalLengthBoundedByFile(t *testing.T) {
	rec, alloc, err := readAllocated(t, hugeTail(writtenJournal(t, t.TempDir())))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn || len(rec.Records) != 3 {
		t.Fatalf("torn=%v records=%d, want a torn tail after 3 records", rec.Torn, len(rec.Records))
	}
	if alloc >= 1<<20 {
		t.Fatalf("reading the journal allocated %d bytes", alloc)
	}
}

// FuzzJournalRead hardens the journal reader: arbitrary bytes must read as a
// recovery or fail with an error — never panic, never allocate out of
// proportion to the file. The seeds are a real journal, its torn and
// bit-flipped tails and a tail whose length field declares a gigabyte. Run
// `go test -fuzz FuzzJournalRead ./internal/resilience` for a real fuzzing
// session; under plain `go test` the seed corpus runs.
func FuzzJournalRead(f *testing.F) {
	journal := writtenJournal(f, f.TempDir())
	f.Add(journal)
	f.Add(hugeTail(journal))
	for _, cut := range []int{7, 8, 20, len(journal) / 2, len(journal) - 5, len(journal) - 1} {
		f.Add(journal[:cut])
	}
	for _, at := range []int{4, 10, len(journal) - 60, len(journal) - 40, len(journal) - 2} {
		flipped := append([]byte(nil), journal...)
		flipped[at] ^= 0xFF
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, alloc, err := readAllocated(t, data)
		if alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("reading a %d-byte journal allocated %d bytes", len(data), alloc)
		}
		if err == nil && rec == nil {
			t.Fatal("Read returned neither a recovery nor an error")
		}
	})
}
