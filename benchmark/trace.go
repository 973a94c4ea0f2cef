package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced pass. The spans of one cell
// execution (or one sweep round) share an exec id; parent indexes the
// enclosing span in tracer.spans, -1 for a root.
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int
	exec       int
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// *tracer is the untraced pass: begin and end are no-ops on it, so the
// measured code is the same in both passes.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
	exec  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// nextExec starts a new execution id for the spans that follow.
func (t *tracer) nextExec() {
	if t != nil {
		t.exec++
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), end: -1, parent: t.open, exec: t.exec})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.spans[id].parent
}

// checkNesting reports the first span that is unfinished or not contained in
// its parent.
func (t *tracer) checkNesting() error {
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d %q never ended", i, s.name)
		}
		if s.parent >= 0 {
			p := t.spans[s.parent]
			if s.parent >= i || s.start < p.start || s.end > p.end || s.exec != p.exec {
				return fmt.Errorf("span %d %q is not nested in its parent %q", i, s.name, p.name)
			}
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// byName groups durations by span name: total durations when self is nil,
// otherwise the given self times.
func (t *tracer) byName(self []time.Duration) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		d := s.end - s.start
		if self != nil {
			d = self[i]
		}
		out[s.name] = append(out[s.name], d)
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event format (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent, "exec": s.exec}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule on a
// sorted copy; 0 for an empty slice.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timing summarises the samples of one timed quantity: the mean (what the
// gated metrics are computed from, see calib.go), p10, p50, and the highest
// percentile that still has ten samples beyond it.
type timing struct {
	Mean  float64 `json:"mean_s"`
	P10   float64 `json:"p10_s"`
	P50   float64 `json:"p50_s"`
	Tail  float64 `json:"tail_s"`
	TailP int     `json:"tail_pct"`
	N     int     `json:"n"`
}

func summarize(xs []time.Duration) timing {
	t := timing{P10: quantile(xs, 0.10).Seconds(), P50: quantile(xs, 0.50).Seconds(), N: len(xs), TailP: 50}
	if len(xs) > 0 {
		t.Mean = sum(xs).Seconds() / float64(len(xs))
	}
	t.Tail = t.P50
	for _, p := range []int{90, 95, 99} {
		if len(xs)*(100-p) >= 10*100 {
			t.TailP, t.Tail = p, quantile(xs, float64(p)/100).Seconds()
		}
	}
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("mean=%.4fs p10=%.4fs p50=%.4fs p%d=%.4fs n=%d", t.Mean, t.P10, t.P50, t.TailP, t.Tail, t.N)
}
