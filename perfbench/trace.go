package main

import (
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent indexes the enclosing span
// in the same run's list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps the spans of one rank in memory; they are written out once,
// when the benchmark ends. A nil tracer records nothing, so the untraced
// loops pay one nil check per call site.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

// maxSpans bounds the memory one rep's spans may take; traced loops stop
// before they would exceed it.
const maxSpans = 40000

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// room reports whether n more spans fit.
func (t *tracer) room(n int) bool { return t == nil || len(t.spans)+n <= cap(t.spans) }

// spanP50us returns the median duration, in microseconds, of the spans with
// a given name, optionally restricted to children of spans named
// parentName; ok is false when no span matched.
func spanP50us(spans []span, name, parentName string) (p50 float64, ok bool) {
	var durs []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if parentName != "" && (s.Parent < 0 || spans[s.Parent].Name != parentName) {
			continue
		}
		durs = append(durs, float64(s.End-s.Start))
	}
	if len(durs) == 0 {
		return 0, false
	}
	return quantile(durs, 0.5) / 1e3, true
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks. v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }
