package kit

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around its own call into that layer. Every span of one block,
// admission or client evaluation carries the same ID; Parent indexes the
// span (in the same trace) whose call caused this one, or is -1 for a
// root.
type Span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A Tracer belongs to
// one goroutine; a nil *Tracer is tracing switched off, and every method
// is then a no-op, so untraced runs pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	Spans []Span
}

// NewTracer starts a trace whose timestamps count from epoch. Tracers
// that share an epoch can be merged into one timeline.
func NewTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

// Begin opens a span and returns its index, to pass to End and as the
// parent of nested spans.
func (t *Tracer) Begin(id uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, Span{ID: id, Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.Spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	t.Spans[i].End = int64(time.Since(t.epoch))
}

// Merge concatenates traces into one, rebasing parent indexes.
func Merge(traces ...*Tracer) []Span {
	var out []Span
	for _, t := range traces {
		if t == nil {
			continue
		}
		base := len(out)
		for _, s := range t.Spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; the part of a child outside its parent counts nothing).
func SelfTimes(spans []Span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[i])
	}
	return self
}

// Totals sums span durations per name.
func Totals(spans []Span) map[string]int64 {
	tot := make(map[string]int64)
	for _, s := range spans {
		tot[s.Name] += s.End - s.Start
	}
	return tot
}

// covered returns how much of [start, end] the union of ivs spans.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// WriteSpans saves a trace as JSON.
func WriteSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
