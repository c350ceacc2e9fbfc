// Package resilience makes long NAS runs survive crashes: a search journal
// (an append-only write-ahead log of every evaluated candidate: its trace
// record and the manifest of its checkpoint) lets nas.Run resume an
// interrupted search and reach a bit-identical result, and the faultinject
// subpackage provides the deterministic fault-injection harness the cluster
// layer's fault-tolerance tests drive.
//
// The journal format is a small record framing: the file opens with a magic
// + version, followed by self-delimiting records, each protected by a CRC32
// so a crash mid-append (a torn tail) is detected and dropped on recovery
// instead of corrupting the replay.
//
//	file   := "SWTJ" u32(version) record*
//	record := u32(kind) u32(len) payload[len] u32(crc32c of kind+len+payload)
//
// Record kinds: 1 = run header (JSON), 3 = candidate evaluation
// (u32(metaLen) + trace.Record JSON + encoded SWTM manifest; the manifest is
// empty only on a Failed record). The object a manifest names lives in the
// durable content-addressed checkpoint store (checkpoint.NewCASDiskStore),
// which persisted it before the record was appended, so replay re-registers
// each manifest against it, hash-verified, and weight transfer after resume
// matches an uninterrupted run bit for bit. A journal is therefore always
// paired with such a store. Version 1 files and kind 2 records (evaluations
// carrying an inline SWTC checkpoint) are no longer written or read: Open and
// Read reject them by name, because skipping an evaluation record would make
// replay diverge.
package resilience

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"swtnas/internal/obs"
	"swtnas/internal/trace"
)

// Journal telemetry (internal/obs, disabled by default): appended records
// and bytes, records replayed on resume, and torn tails dropped during
// recovery.
var (
	mJournalAppends  = obs.GetCounter("resilience.journal.appends")
	mJournalBytes    = obs.GetCounter("resilience.journal.bytes")
	mJournalReplayed = obs.GetCounter("resilience.journal.replayed")
	mJournalTorn     = obs.GetCounter("resilience.journal.torn")

	// Evaluation appends, all manifest records; the dedup-smoke CI job checks
	// one per journaled candidate.
	mJournalManifestAppends = obs.GetCounter("resilience.journal.manifest.appends")
)

const (
	journalMagic   = "SWTJ"
	journalVersion = uint32(2)

	recordHeader   = uint32(1)
	recordManifest = uint32(3)
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header identifies the run a journal belongs to. Resume validates it
// against the restarted run's options field by field: replay re-derives the
// proposal stream from the seed, so any drift (different seed, budget,
// population, dataset split) would silently diverge instead of resuming.
type Header struct {
	App        string `json:"app"`
	Scheme     string `json:"scheme"`
	Space      string `json:"space,omitempty"`
	Seed       int64  `json:"seed"`
	DataSeed   int64  `json:"data_seed"`
	Budget     int    `json:"budget"`
	Workers    int    `json:"workers"`
	Population int    `json:"population"`
	Sample     int    `json:"sample"`
	TrainN     int    `json:"train_n"`
	ValN       int    `json:"val_n"`
	// The proxy pre-filter and multi-objective knobs change the proposal
	// stream, so resume must see them unchanged. omitempty keeps journals
	// written before these fields existed decoding to zero values, which
	// validate against a run using the defaults — old journals stay
	// bit-identically resumable.
	ProxyFilter    bool    `json:"proxy_filter,omitempty"`
	ProxyAdmit     float64 `json:"proxy_admit,omitempty"`
	MultiObjective bool    `json:"multi_objective,omitempty"`
	// DType is the canonical spelling of the run's training element type
	// ("f32"; empty means float64). Training in a different dtype produces
	// different weights and scores, so resuming a journal under a drifted
	// dtype would replay checkpoints that the continuing run could never
	// have produced — Validate rejects it like any other option drift.
	// omitempty keeps pre-dtype journals decoding to "", which validates
	// against an f64 run.
	DType string `json:"dtype,omitempty"`
}

// HeaderMismatchError is the typed form of a journal/run configuration
// divergence: Field names the option that drifted (as spelled in the
// Validate error message, e.g. "dtype"), Journal and Run carry the two
// values. Callers detect it with errors.As to distinguish a wrong-options
// resume from journal corruption.
type HeaderMismatchError struct {
	Field        string
	Journal, Run any
}

func (e *HeaderMismatchError) Error() string {
	return fmt.Sprintf("resilience: journal %s = %v, run has %v — resume needs the original run options", e.Field, e.Journal, e.Run)
}

// Validate reports the first field on which other diverges from h (as a
// *HeaderMismatchError), or nil when the journal belongs to the same run
// configuration.
func (h Header) Validate(other Header) error {
	type field struct {
		name string
		a, b any
	}
	for _, f := range []field{
		{"app", h.App, other.App},
		{"scheme", h.Scheme, other.Scheme},
		{"space", h.Space, other.Space},
		{"seed", h.Seed, other.Seed},
		{"data seed", h.DataSeed, other.DataSeed},
		{"budget", h.Budget, other.Budget},
		{"workers", h.Workers, other.Workers},
		{"population", h.Population, other.Population},
		{"sample", h.Sample, other.Sample},
		{"train samples", h.TrainN, other.TrainN},
		{"val samples", h.ValN, other.ValN},
		{"proxy filter", h.ProxyFilter, other.ProxyFilter},
		{"proxy admit", h.ProxyAdmit, other.ProxyAdmit},
		{"multi-objective", h.MultiObjective, other.MultiObjective},
		{"dtype", dtypeSpelling(h.DType), dtypeSpelling(other.DType)},
	} {
		if f.a != f.b {
			return &HeaderMismatchError{Field: f.name, Journal: f.a, Run: f.b}
		}
	}
	return nil
}

// dtypeSpelling normalizes the header's dtype for comparison and for the
// mismatch message: the empty string is the pre-dtype (and omitempty)
// spelling of float64, which would otherwise surface as a blank in
// "journal dtype = f32, run has f64".
func dtypeSpelling(s string) string {
	if s == "" {
		return "f64"
	}
	return s
}

// EvalRecord is one journaled candidate evaluation: the full trace record
// plus the candidate's encoded SWTM manifest — 36 bytes naming, by content
// hash, the checkpoint object the store persisted durably before the record
// was appended. Manifest is empty exactly
// when Record.Failed is set: a failed candidate has no checkpoint.
type EvalRecord struct {
	Record   trace.Record
	Manifest []byte
}

// Recovery is a journal read back from disk, ready to replay.
type Recovery struct {
	Header  Header
	Records []EvalRecord
	// Torn reports whether recovery dropped an incomplete or
	// CRC-mismatched tail record — the signature of a crash mid-append.
	Torn bool
}

// Journal is an open write-ahead log. Append is safe for concurrent use;
// each record is written in one Write call and fsynced, so after Append
// returns, the candidate survives a process kill.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Create starts a fresh journal at path (truncating any existing file) and
// writes the run header.
func Create(path string, h Header) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resilience: creating journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	var head bytes.Buffer
	head.WriteString(journalMagic)
	if err := binary.Write(&head, binary.LittleEndian, journalVersion); err != nil {
		f.Close()
		return nil, err
	}
	payload, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := j.writeFrame(head.Bytes(), recordHeader, payload); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Open recovers an existing journal for resumption: it parses every valid
// record, truncates a torn tail (so subsequent appends extend a clean
// prefix), and returns the journal positioned for Append.
func Open(path string) (*Journal, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: opening journal: %w", err)
	}
	rec, validLen, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if rec.Torn {
		mJournalTorn.Inc()
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("resilience: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	mJournalReplayed.Add(int64(len(rec.Records)))
	return &Journal{f: f, path: path}, rec, nil
}

// Read parses a journal without opening it for writing (inspection, tests).
func Read(path string) (*Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading journal: %w", err)
	}
	defer f.Close()
	rec, _, err := scan(f)
	return rec, err
}

// Append logs one evaluated candidate. The record is framed, CRC'd, written
// in a single Write and fsynced before Append returns.
func (j *Journal) Append(r EvalRecord) error {
	if r.Record.Failed != (len(r.Manifest) == 0) {
		return fmt.Errorf("resilience: candidate %d: a record carries a manifest unless it is Failed (failed %v, manifest %d bytes)",
			r.Record.ID, r.Record.Failed, len(r.Manifest))
	}
	meta, err := json.Marshal(r.Record)
	if err != nil {
		return err
	}
	payload := make([]byte, 0, 4+len(meta)+len(r.Manifest))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(meta)))
	payload = append(payload, meta...)
	payload = append(payload, r.Manifest...)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("resilience: journal %s is closed", j.path)
	}
	if err := j.writeFrame(nil, recordManifest, payload); err != nil {
		return err
	}
	mJournalManifestAppends.Inc()
	return nil
}

// Close fsyncs and closes the journal file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// writeFrame writes prefix (file magic, for the first record) plus one
// framed record in a single Write call, then syncs. Callers hold j.mu (or
// own the journal exclusively during Create).
func (j *Journal) writeFrame(prefix []byte, kind uint32, payload []byte) error {
	frame := make([]byte, 0, len(prefix)+12+len(payload))
	frame = append(frame, prefix...)
	body := make([]byte, 0, 8+len(payload))
	body = binary.LittleEndian.AppendUint32(body, kind)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(payload)))
	body = append(body, payload...)
	frame = append(frame, body...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crcTable))
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("resilience: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("resilience: syncing journal: %w", err)
	}
	mJournalAppends.Inc()
	mJournalBytes.Add(int64(len(frame)))
	return nil
}

// scan parses the journal stream, returning the recovery plus the byte
// offset of the end of the last valid record. A torn or corrupt tail sets
// Torn and stops the scan; a missing or corrupt header is a hard error
// (there is nothing to resume from), and so is a file version or an intact
// record kind this build does not read (skipping it would drop a candidate
// from the replay).
func scan(f *os.File) (*Recovery, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("resilience: reading journal: %w", err)
	}
	br := bufio.NewReader(f)
	head := make([]byte, 4+4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("resilience: reading journal magic: %w", err)
	}
	if string(head[:4]) != journalMagic {
		return nil, 0, fmt.Errorf("resilience: bad journal magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != journalVersion {
		return nil, 0, fmt.Errorf("resilience: unsupported journal version %d (only version %d is read)", v, journalVersion)
	}
	rec := &Recovery{}
	offset := int64(len(head))
	sawHeader := false
	for {
		kind, payload, n, err := readFrame(br, info.Size()-offset)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: a crash mid-append left a partial or corrupt
			// record. Everything before it is valid.
			rec.Torn = true
			break
		}
		switch kind {
		case recordHeader:
			if sawHeader {
				return nil, 0, fmt.Errorf("resilience: duplicate journal header")
			}
			if err := json.Unmarshal(payload, &rec.Header); err != nil {
				return nil, 0, fmt.Errorf("resilience: decoding journal header: %w", err)
			}
			sawHeader = true
		case recordManifest:
			if !sawHeader {
				return nil, 0, fmt.Errorf("resilience: journal record before header")
			}
			if len(payload) < 4 {
				rec.Torn = true
				break
			}
			metaLen := binary.LittleEndian.Uint32(payload)
			if int(metaLen) > len(payload)-4 {
				rec.Torn = true
				break
			}
			var er EvalRecord
			if err := json.Unmarshal(payload[4:4+metaLen], &er.Record); err != nil {
				return nil, 0, fmt.Errorf("resilience: decoding journal record at offset %d: %w", offset, err)
			}
			er.Manifest = append([]byte(nil), payload[4+metaLen:]...)
			rec.Records = append(rec.Records, er)
		default:
			return nil, 0, fmt.Errorf("resilience: unsupported journal record kind %d at offset %d", kind, offset)
		}
		if rec.Torn {
			break
		}
		offset += n
	}
	if !sawHeader {
		return nil, 0, fmt.Errorf("resilience: journal has no header record")
	}
	return rec, offset, nil
}

// readFrame reads one framed record of at most left bytes, the rest of the
// file, verifying its CRC. It returns io.EOF cleanly at end of stream and any
// other error for a torn or corrupt record — among them a length field the
// file cannot hold, refused before anything is allocated for it.
func readFrame(br *bufio.Reader, left int64) (kind uint32, payload []byte, n int64, err error) {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, 0, fmt.Errorf("resilience: torn record header")
		}
		return 0, nil, 0, err
	}
	kind = binary.LittleEndian.Uint32(hdr)
	plen := binary.LittleEndian.Uint32(hdr[4:])
	if int64(plen) > left-12 {
		return 0, nil, 0, fmt.Errorf("resilience: record length %d runs past the journal's last %d bytes", plen, left)
	}
	payload = make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("resilience: torn record payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("resilience: torn record checksum: %w", err)
	}
	crc := crc32.Checksum(hdr, crcTable)
	crc = crc32.Update(crc, crcTable, payload)
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != crc {
		return 0, nil, 0, fmt.Errorf("resilience: record checksum mismatch")
	}
	return kind, payload, int64(8 + len(payload) + 4), nil
}
