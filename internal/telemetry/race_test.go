package telemetry

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentHammer drives every mutating entry point against
// Render/Snapshot from many goroutines. Run under -race this proves the
// lock-free paths are publication-safe.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	c := r.Counter("hammer_ops_total", "")
	g := r.Gauge("hammer_depth_current", "")
	h := r.Histogram("hammer_latency_seconds", "", nil)
	v := r.CounterVec("hammer_hits_total", "", "pop")
	tr := NewTracer(nil, 128)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pop := []string{"LON", "NYC", "SIN"}[w%3]
			handle := v.With(pop)
			id := tr.StartTrace()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 1000)
				handle.Inc()
				tr.Event(id, "test", "tick", Int("i", i))
			}
		}(w)
	}
	var rg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Render()
				_ = r.Snapshot()
				_ = tr.WriteJSONL(io.Discard)
			}
		}()
	}
	wg.Wait()
	rg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	var sum uint64
	for _, pop := range []string{"LON", "NYC", "SIN"} {
		sum += v.With(pop).Value()
	}
	if sum != workers*iters {
		t.Errorf("vec sum = %d, want %d", sum, workers*iters)
	}
}
