package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job share its job index;
// batch numbers the replayed batch (0 is the warm-up batch that
// constructs machines).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the same tracer, -1 for a root
	Job    int    `json:"job"`
	Batch  int    `json:"batch"`
}

// tracer records the spans of one goroutine. Spans stay in memory until
// the run ends; each goroutine owns its tracer, so recording needs no
// locking.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
	job   int
	batch int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch, open: -1} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) {
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.epoch)), Parent: t.open, Job: t.job, Batch: t.batch,
	})
	t.open = len(t.spans) - 1
}

// end closes the innermost open span.
func (t *tracer) end() {
	s := &t.spans[t.open]
	s.End = int64(time.Since(t.epoch))
	t.open = s.Parent
}

// selfTimes returns, per span name, the summed self time of the spans
// that keep: each span's duration minus the part of it that its
// children's intervals cover. Children may overlap one another; the
// covered part is their union, clipped to the parent.
func selfTimes(spans []span, keep func(*span) bool) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if !keep(s) {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(spans, children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the given spans' intervals
// within [lo, hi].
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, c := range idx {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// durations sums span durations per name over the spans that keep.
func durations(spans []span, keep func(*span) bool) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i := range spans {
		if s := &spans[i]; keep(s) {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// writeSpans writes every tracer's spans to path as NDJSON, one line
// per span tagged with its tracer.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer int `json:"tracer"`
				span
			}{ti, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
