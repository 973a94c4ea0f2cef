package simd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// normalizeCodes is the documented set of Error.Code values a rejected spec
// may carry (the admission and teardown codes never come from Normalize or
// the decoder).
var normalizeCodes = map[string]bool{
	"bad-spec": true, "bad-kernel": true, "bad-mechanism": true, "bad-fabric": true,
	"bad-chaos": true, "bad-machine": true, "vet": true, "too-large": true,
}

// FuzzNormalize feeds arbitrary bytes through the server's own request
// decoder into Normalize under tight limits. Whatever arrives, the answer
// is a structured rejection or a well-formed sweep: no panic, no cell
// without an identity of its own, and a normalized spec that normalizes to
// itself (so a resubmission of what the server echoes lands on the same
// journal and cache keys).
func FuzzNormalize(f *testing.F) {
	marshal := func(s Spec) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(marshal(smallSpec()))
	for _, body := range []string{
		`{"kernels":["microbench"]}`,
		`{"kernels":["livermore2"],"n":100}`,
		`{"kernels":["livermore1"],"n":4000000000}`,
		`{"kernels":["microbench","microbench"],"seeds":[7,7]}`,
		`{"kernels":["viterbi"],"mechanisms":["sw-tree","hw-net"],"threads":3,"fabric":"mesh","chaos":["preempt"]}`,
		`{"kernels":["lockreduce"],"n":-5,"loops":-1,"filtercap":1,"sanitize":true}`,
		`{"kernels":["microbench"],"cells":[0]}`,
		`{"kernels":[""],"threads":-1}`,
		`{"kern`,
		`[]`,
		``,
		"\x00\xff{",
		`{"kernels":["microbench"],"deadline_ms":18446744073710}`,
		`{"kernels":["microbench"],"queue_deadline_ms":9223372036855}`,
	} {
		f.Add([]byte(body))
	}

	lim := Limits{MaxCells: 16, MaxThreads: 8, MaxCycles: 2_000_000} // the default cycle budget still fits
	s, err := NewServer(Config{Limits: lim})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		var spec Spec
		if !s.decodeSpec(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)), &spec) {
			var e struct {
				Error *Error `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil ||
				rec.Code != http.StatusBadRequest || e.Error.Code != "bad-spec" {
				t.Fatalf("undecodable body answered %d %q (%v), want a 400 bad-spec", rec.Code, rec.Body, err)
			}
			return
		}
		sw, serr := Normalize(spec, lim)
		if serr != nil {
			if !normalizeCodes[serr.Code] || serr.Detail == "" {
				t.Fatalf("rejection outside the documented set: %+v", serr)
			}
			return
		}
		for _, ms := range []int64{sw.Spec.DeadlineMS, sw.Spec.QueueDeadlineMS} {
			if d := time.Duration(ms) * time.Millisecond; d/time.Millisecond != time.Duration(ms) {
				t.Fatalf("deadline of %d ms accepted, but it wraps to %v", ms, d)
			}
		}
		if len(sw.Cells) < 1 || len(sw.Cells) > lim.MaxCells {
			t.Fatalf("%d cells accepted under MaxCells %d", len(sw.Cells), lim.MaxCells)
		}
		keys, hashes := map[string]int{}, map[string]int{}
		for i, c := range sw.Cells {
			if c.Index != i {
				t.Fatalf("cell at position %d has Index %d", i, c.Index)
			}
			if j, dup := keys[c.Key]; dup {
				t.Fatalf("cells %d and %d share key %q", j, i, c.Key)
			}
			if j, dup := hashes[c.Hash]; dup {
				t.Fatalf("cells %d and %d share hash %s", j, i, c.Hash)
			}
			keys[c.Key], hashes[c.Hash] = i, i
		}
		again, serr := Normalize(sw.Spec, lim)
		if serr != nil {
			t.Fatalf("normalized spec rejected on resubmission: %v", serr)
		}
		if again.Hash != sw.Hash || len(again.Cells) != len(sw.Cells) {
			t.Fatalf("normalization is not a fixed point: sweep %s (%d cells) then %s (%d cells)",
				sw.Hash, len(sw.Cells), again.Hash, len(again.Cells))
		}
		for i := range sw.Cells {
			if again.Cells[i].Hash != sw.Cells[i].Hash {
				t.Fatalf("cell %d hash moved on re-normalization: %s then %s", i, sw.Cells[i].Hash, again.Cells[i].Hash)
			}
		}
	})
}
