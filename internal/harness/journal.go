package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
)

// Cell journal statuses. A journal line records how a cell ended; resumed
// sweeps replay StatusOK cells from their recorded data and surface the
// others without re-simulating.
const (
	StatusOK      = "ok"
	StatusError   = "error"
	StatusTimeout = "timeout"
	StatusPanic   = "panic"
)

// The header record every journal opens with: its Spec field carries the
// content hash of the sweep spec the journal belongs to, so a resume of a
// different sweep is refused instead of silently replaying mismatched cells.
const (
	specKey    = "@spec"
	specStatus = "spec"
)

// ErrJournalSpec marks a resume attempt against a journal written for a
// different sweep spec.
var ErrJournalSpec = errors.New("harness: journal belongs to a different sweep spec")

// Entry is one journal record: a cell's stable key, how it ended, and (for
// completed cells) its result, so a resumed sweep can replay it without
// re-simulating.
type Entry struct {
	Key    string          `json:"key"`
	Status string          `json:"status"` // ok | error | timeout | panic | spec (header)
	Spec   string          `json:"spec,omitempty"`
	Error  string          `json:"error,omitempty"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// SpecHash returns the content hash a journal header records for a sweep
// spec description. The description must capture everything that changes
// the sweep's results (kernels, mechanisms, sizes, fabric, seeds, cycle
// budgets) and nothing that does not (worker counts, wall-clock deadlines,
// behaviour-invariant simulator toggles like the fast path).
func SpecHash(spec string) string {
	sum := sha256.Sum256([]byte(spec))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Journal is a crash-resilient JSONL record of a sweep. The first line is a
// header naming the sweep spec's content hash; cell records follow in the
// order they are written and are synced line by line. Every line, header
// included, ends in a checksum of the rest of it (see appendRecord), so a
// byte damaged in place ends the intact prefix exactly as a torn line does
// and is never replayed. It is append-only and keeps no order of its own:
// its one writer — the deliver callback of the sweep's Runner — already
// sees cells strictly in index order, so killing the process at any point
// leaves a clean prefix of the full journal plus at most one torn final
// line, which OpenJournal truncates away on resume. A resumed sweep
// therefore appends exactly the missing suffix and the finished file is
// byte-identical to an uninterrupted run's.
type Journal struct {
	f    *os.File
	done map[string]Entry // entries loaded on resume, by key
}

// OpenJournal creates (or, when resume is set, reopens) the journal at
// path, guarding it with the content hash of spec. On resume it verifies
// the header against spec, loads every intact record, and truncates the
// file at the first line that is torn or fails its checksum, so the sweep
// re-runs from that cell. Resuming a journal whose header names a different
// spec fails with ErrJournalSpec; a journal with no header at all (or with
// cell records before any header) is refused too, since nothing ties it to
// this sweep.
func OpenJournal(path string, resume bool, spec string) (*Journal, error) {
	j := &Journal{done: make(map[string]Entry)}
	hash := SpecHash(spec)
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		j.f = f
		if err := j.writeHeader(hash); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	valid := 0
	first := true
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn tail: the final line was cut mid-write
		}
		var e Entry
		line := data[valid : valid+nl]
		if !sumOK(line) || json.Unmarshal(line, &e) != nil || e.Key == "" {
			break // torn or corrupt from here on
		}
		if first {
			if e.Key != specKey || e.Status != specStatus {
				return nil, fmt.Errorf("%w: %s has no spec header (first record %q)",
					ErrJournalSpec, path, e.Key)
			}
			if e.Spec != hash {
				return nil, fmt.Errorf("%w: %s was written for spec %s, this sweep is %s",
					ErrJournalSpec, path, e.Spec, hash)
			}
			first = false
		} else {
			j.done[e.Key] = e
		}
		valid += nl + 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	if first {
		// Nothing intact, not even the header (fresh file, or a kill
		// mid-header-write): start the journal over.
		if err := j.writeHeader(hash); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// writeHeader emits the spec-hash header line.
func (j *Journal) writeHeader(hash string) error {
	return j.Write(Entry{Key: specKey, Status: specStatus, Spec: hash})
}

// Done returns the journaled entry for a cell key, if the journal was
// resumed past it.
func (j *Journal) Done(key string) (Entry, bool) {
	e, ok := j.done[key]
	return e, ok
}

// Write appends one record and syncs it to disk.
func (j *Journal) Write(e Entry) error {
	line, err := appendRecord(e)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// A record's line is the Entry's JSON object with one more member spliced
// in before the closing brace: "sum", the CRC-32 (IEEE, eight hex digits)
// of the object as it was marshaled without it. The sum covers the exact
// bytes on disk, so any single damaged byte — in a key, inside data, in the
// sum itself — fails the check, and computing it costs no second encoding
// of Data. Readers that decode a line as an Entry simply ignore the member.
const (
	sumFormat = `,"sum":"%08x"}` // replaces the object's closing brace
	sumLen    = len(sumFormat) - len("%08x") + 8
)

// appendRecord encodes one journal line, newline included.
func appendRecord(e Entry) ([]byte, error) {
	line, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	line = fmt.Appendf(line[:len(line)-1], sumFormat, crc32.ChecksumIEEE(line))
	return append(line, '\n'), nil
}

// sumOK reports whether a line (without its newline) ends in the checksum
// of the rest of it, byte for byte as appendRecord writes it (an
// upper-cased digit is damage too: it would survive into a "finished"
// journal that no uninterrupted run produces). A line written before
// checksums existed has none and fails, which restarts that journal.
func sumOK(line []byte) bool {
	body := len(line) - sumLen
	if body < 1 {
		return false
	}
	sum := crc32.Update(crc32.ChecksumIEEE(line[:body]), crc32.IEEETable, []byte{'}'})
	return bytes.Equal(line[body:], fmt.Appendf(nil, sumFormat, sum))
}

func (j *Journal) Close() error { return j.f.Close() }
