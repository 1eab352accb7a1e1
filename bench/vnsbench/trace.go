package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness's own
// files around the call. Spans of one operation (one UPDATE, one Apply)
// share Op; Parent is the ID of the enclosing span (0 = root). Calls is
// how many layer calls the span covers: calls that take well under a
// microsecond are timed as one span around a loop, because two clock
// reads per call would be most of what is measured.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Calls  int    `json:"calls"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out at exit. A nil
// tracer records nothing, so the untraced run pays one nil check per
// call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Calls: 1, Start: now})
	return len(t.spans)
}

// end closes span id; calls is the number of layer calls it covered.
func (t *tracer) end(id, calls int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Calls = calls
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is what a span name accumulated: self time (duration minus
// the part covered by child spans) and the calls it covered.
type layerTime struct {
	SelfNs int64
	Calls  int
}

// perCallNs is the layer's mean self time per call.
func (l layerTime) perCallNs() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.SelfNs) / float64(l.Calls)
}

// selfTimes sums self time per span name. Children of one parent do not
// overlap here (each is opened and closed on the parent's goroutine), so
// the covered part of a parent is the sum of its children's durations.
func selfTimes(spans []span) map[string]layerTime {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		l := out[s.Name]
		l.SelfNs += s.End - s.Start - covered[s.ID]
		l.Calls += s.Calls
		out[s.Name] = l
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
