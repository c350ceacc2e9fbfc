package resilience

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swtnas/internal/checkpoint"
	"swtnas/internal/trace"
)

func testHeader() Header {
	return Header{
		App: "nt3", Scheme: "LCS", Space: "nt3", Seed: 3, DataSeed: 1,
		Budget: 8, Workers: 2, Population: 4, Sample: 2, TrainN: 32, ValN: 16,
	}
}

func testRecord(id int) EvalRecord {
	return EvalRecord{
		Record: trace.Record{
			ID:        id,
			Arch:      []int{id, id + 1, 0},
			Score:     0.5 + float64(id)/100,
			ParentID:  id - 1,
			TrainTime: time.Duration(id) * time.Millisecond,
		},
		Manifest: []byte(strings.Repeat("m", 48+id)),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.swtj")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(9)); err == nil {
		t.Fatal("append after close must fail")
	}

	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn {
		t.Fatal("clean journal read as torn")
	}
	if err := rec.Header.Validate(testHeader()); err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("records = %d, want 5", len(rec.Records))
	}
	for i, er := range rec.Records {
		want := testRecord(i)
		if er.Record.ID != want.Record.ID || er.Record.Score != want.Record.Score {
			t.Fatalf("record %d = %+v", i, er.Record)
		}
		if string(er.Manifest) != string(want.Manifest) {
			t.Fatalf("record %d manifest mismatch (%d bytes)", i, len(er.Manifest))
		}
	}
}

func TestJournalHeaderValidation(t *testing.T) {
	h := testHeader()
	if err := h.Validate(h); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Header){
		func(o *Header) { o.App = "uno" },
		func(o *Header) { o.Scheme = "LP" },
		func(o *Header) { o.Seed = 99 },
		func(o *Header) { o.DataSeed = 99 },
		func(o *Header) { o.Budget = 99 },
		func(o *Header) { o.Workers = 99 },
		func(o *Header) { o.Population = 99 },
		func(o *Header) { o.Sample = 99 },
		func(o *Header) { o.TrainN = 99 },
		func(o *Header) { o.ValN = 99 },
		func(o *Header) { o.ProxyFilter = true },
		func(o *Header) { o.ProxyAdmit = 0.25 },
		func(o *Header) { o.MultiObjective = true },
	}
	for i, mutate := range cases {
		o := testHeader()
		mutate(&o)
		if err := h.Validate(o); err == nil {
			t.Fatalf("case %d: mismatched header validated", i)
		}
	}

	// Headers written before the proxy fields existed decode with zero values
	// (omitempty keeps new writers from emitting them when unset), so an old
	// journal still validates against default options.
	var old Header
	if err := json.Unmarshal([]byte(`{"app":"nt3","scheme":"LCS","budget":4,"seed":7,"data_seed":7,"workers":2,"population":10,"sample":3,"train_n":100,"val_n":20}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.ProxyFilter || old.ProxyAdmit != 0 || old.MultiObjective {
		t.Fatalf("legacy header grew proxy fields: %+v", old)
	}
	b, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"proxy_filter", "proxy_admit", "multi_objective"} {
		if strings.Contains(string(b), absent) {
			t.Fatalf("unset %s serialized: %s", absent, b)
		}
	}
}

// TestJournalDetectsCorruption flips one payload byte; the CRC must reject
// the record (torn tail) rather than replay garbage.
func TestJournalDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.swtj")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn || len(rec.Records) != 0 {
		t.Fatalf("corrupt record survived: torn=%v records=%d", rec.Torn, len(rec.Records))
	}
}

func TestJournalRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("bad magic must be rejected by Open")
	}
}

func TestJournalCreateTruncatesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.swtj")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recreated journal still has %d records", len(rec.Records))
	}
}

// TestJournalFailedRecordHasNoManifest: a record carries a manifest exactly
// when its candidate was scored. A Failed record round-trips with none; the
// other two pairings are rejected at Append, before anything is written.
func TestJournalFailedRecordHasNoManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.swtj")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	failed := testRecord(0)
	failed.Record.Failed, failed.Record.FailReason, failed.Manifest = true, "retry budget spent", nil
	if err := j.Append(failed); err != nil {
		t.Fatal(err)
	}
	scoredWithout := testRecord(1)
	scoredWithout.Manifest = nil
	if err := j.Append(scoredWithout); err == nil {
		t.Fatal("scored record without a manifest must be rejected")
	}
	failedWith := testRecord(2)
	failedWith.Record.Failed = true
	if err := j.Append(failedWith); err == nil {
		t.Fatal("failed record with a manifest must be rejected")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || len(rec.Records) != 1 {
		t.Fatalf("torn=%v records=%d, want the one failed record", rec.Torn, len(rec.Records))
	}
	if got := rec.Records[0]; !got.Record.Failed || got.Record.FailReason != "retry budget spent" || len(got.Manifest) != 0 {
		t.Fatalf("failed record read back as %+v", got)
	}
}

// TestRetiredFormatsRejected: every format this repo once wrote and no longer
// reads fails with an error naming the version, kind, encoding or format found —
// never a panic, a partial model, or a silently skipped record (a skipped
// evaluation record makes replay diverge).
func TestRetiredFormatsRejected(t *testing.T) {
	// A current journal with one record, and a current f64 SWTC stream, to
	// derive the retired layouts from.
	jpath := filepath.Join(t.TempDir(), "run.swtj")
	j, err := Create(jpath, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	model := &checkpoint.Model{Arch: []int{1, 2}, Score: 0.5, Groups: []checkpoint.Group{{
		Layer: "d", Signature: []int{2, 2},
		Tensors: []checkpoint.Tensor{{Name: "d/W", Shape: []int{2, 2}, Data: []float64{1, 2, 3, 4}}},
	}}}
	swtc, err := model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := swtc[16:] // after magic, version, dtype, reserved word
	stream := func(words ...uint32) []byte {
		b := []byte("SWTC")
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return append(b, body...)
	}
	// kind2 re-frames the journal's evaluation record under the retired kind,
	// CRC intact, as a version-2 writer of the parent commit would have.
	kind2 := func() []byte {
		headerEnd := 8 + 8 + int(binary.LittleEndian.Uint32(journal[12:])) + 4
		frame := append([]byte(nil), journal[headerEnd:]...)
		binary.LittleEndian.PutUint32(frame, 2)
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(frame[:len(frame)-4], crcTable))
		return append(append([]byte(nil), journal[:headerEnd]...), frame...)
	}
	readJournal := func(b []byte) error {
		p := filepath.Join(t.TempDir(), "old.swtj")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Read(p)
		if err == nil {
			t.Errorf("Read recovered %d records", len(rec.Records))
		}
		if _, _, oerr := Open(p); oerr == nil || oerr.Error() != err.Error() {
			t.Errorf("Open error %v, Read error %v", oerr, err)
		}
		return err
	}
	decode := func(b []byte) error {
		m, err := checkpoint.Decode(b)
		if m != nil {
			t.Errorf("Decode returned a model alongside error %v", err)
		}
		return err
	}
	// An object file of the store before element-aligned objects: the stream
	// byte-plane-shuffled at its element width, then gzipped. It is refused
	// on its first read, by Load and by AdoptManifest alike.
	gzipObject := func(op string) error {
		dir := t.TempDir()
		s, err := checkpoint.NewCASDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save("a", model); err != nil {
			t.Fatal(err)
		}
		man, err := s.EncodedManifest("a")
		if err != nil {
			t.Fatal(err)
		}
		n := len(swtc) / 8
		shuffled := append(make([]byte, 8*n), swtc[8*n:]...)
		for i := 0; i < 8*n; i++ {
			shuffled[(i%8)*n+i/8] = swtc[i]
		}
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(shuffled) // a bytes.Buffer takes every write; Close reports any error
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		obj := filepath.Join(dir, "objects", checkpoint.HashBlob(swtc).String()+".obj")
		if err := os.WriteFile(obj, gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err = checkpoint.NewCASDiskStore(dir); err != nil {
			t.Fatal(err)
		}
		if op == "Load" {
			_, err = s.Load("a")
			return err
		}
		return s.AdoptManifest("b", man)
	}
	gzipNames := "object " + checkpoint.HashBlob(swtc).String() + " is a gzip object"
	v1Journal := append([]byte(nil), journal...)
	v1Journal[4] = 1 // the version word is outside any record CRC
	for _, tc := range []struct {
		name  string
		err   error
		names string
	}{
		{"SWTJ version 1 file", readJournal(v1Journal), "journal version 1"},
		{"SWTJ kind 2 record", readJournal(kind2()), "record kind 2"},
		{"SWTC version 1 stream", decode(stream(1)), "SWTC version 1"},
		{"SWTC version 2 stream", decode(stream(2, 2)), "SWTC version 2"},
		{"SWTC version 3, gzip encoding word", decode(stream(3, 0, 2)), "SWTC encoding 2"},
		{"gzip object, Load", gzipObject("Load"), gzipNames},
		{"gzip object, AdoptManifest", gzipObject("AdoptManifest"), gzipNames},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.names) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, tc.err, tc.names)
		}
	}
	if _, err := checkpoint.Decode(swtc); err != nil {
		t.Fatalf("the current stream the cases derive from must decode: %v", err)
	}
}

// TestJournalTornTailMidManifest simulates a crash mid-append: every proper
// prefix of the final record must recover the earlier records, flag the tear,
// and leave the journal appendable.
func TestJournalTornTailMidManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.swtj")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore, err := j.f.Seek(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	sizeAfter, err := j.f.Seek(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizeBefore + 1; cut < sizeAfter; cut += 5 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rec.Torn || len(rec.Records) != 2 {
			t.Fatalf("cut %d: torn=%v records=%d", cut, rec.Torn, len(rec.Records))
		}
		if err := j2.Append(testRecord(2)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		rec2, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if rec2.Torn || len(rec2.Records) != 3 {
			t.Fatalf("cut %d: after repair torn=%v records=%d", cut, rec2.Torn, len(rec2.Records))
		}
		if len(rec2.Records[2].Manifest) == 0 {
			t.Fatalf("cut %d: repaired record lost its manifest", cut)
		}
	}
}
