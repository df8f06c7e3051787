package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// seconds since the tracer was created; Parent is the index of the enclosing
// span in the tracer's list, -1 at top level.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// tracer records spans in memory from the one goroutine that drives the
// layers. A nil *tracer is valid and records nothing: the untraced run
// passes nil, so the end-to-end metrics never pay for span bookkeeping.
type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
	open     []int // stack of indices into spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns the function that closes it and reports
// its duration in seconds:
//
//	defer tr.begin("suite.generate")()
func (t *tracer) begin(name string) func() float64 {
	if t == nil {
		return func() float64 { return 0 }
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.t0).Seconds(),
		Parent: parent, Workload: t.workload, Rep: t.rep,
	})
	t.open = append(t.open, idx)
	return func() float64 {
		s := &t.spans[idx]
		s.End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
		return s.End - s.Start
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	calls int
	total float64 // seconds, children included
	self  float64 // seconds, children excluded
}

// spanStats folds spans by name. A span's self time is its duration minus
// the durations of its direct children (children of one parent never
// overlap: the tracer is single-goroutine).
func spanStats(spans []span) map[string]spanStat {
	kids := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]spanStat)
	for i, s := range spans {
		st := out[s.Name]
		st.calls++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - kids[i]
		out[s.Name] = st
	}
	return out
}

// perCall returns the mean duration of the named spans in the given unit
// (1e3 for ms, 1e6 for µs); 0 when there were none.
func perCall(stats map[string]spanStat, name string, unit float64) float64 {
	st := stats[name]
	if st.calls == 0 {
		return 0
	}
	return st.total / float64(st.calls) * unit
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
