package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a manually advanced convergence clock.
type fakeClock struct{ t float64 }

func (f *fakeClock) now() float64      { return f.t }
func (f *fakeClock) advance(d float64) { f.t += d }

// sums returns c's summed end-to-end and summed per-stage seconds.
func sums(c *Convergence) (total, stageSum float64) {
	for _, h := range c.stages {
		stageSum += h.Sum()
	}
	for _, k := range c.kinds {
		total += k.total.Sum()
	}
	return total, stageSum
}

func TestConvergenceStageTiling(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	c := NewConvergence(r, nil, clk.now)

	ev := c.Begin(ConvUpdate)
	m := ev.Mark()
	clk.advance(0.010)
	ev.Stage(StageIngest, m)
	m = ev.Mark()
	clk.advance(0.020)
	ev.Stage(StageSelect, m)

	// Forwarding window containing one attributed 5ms compile: the
	// exclusive stage must subtract it so the stages tile the event.
	m = ev.Mark()
	clk.advance(0.030)
	c.ObserveCompileFor(ev.id, 0.005)
	ev.StageExclusive(StageForwarding, m)

	ev.Finish()
	total, stageSum := sums(c)
	if want := 0.060; math.Abs(total-want) > 1e-12 {
		t.Errorf("total = %v, want %v", total, want)
	}
	// 10ms + 20ms + 5ms compile + (30ms − 5ms) forwarding = 60ms.
	if math.Abs(stageSum-total) > 1e-12 {
		t.Errorf("stage sum %v does not tile total %v", stageSum, total)
	}
	if got := c.StageCount(StageFIBCompile); got != 1 {
		t.Errorf("fib_compile count = %d, want 1", got)
	}
	if got := c.StageQuantile(StageForwarding, 0.5); got <= 0 {
		t.Errorf("forwarding p50 = %v, want > 0", got)
	}
	if got := c.Events(); got != 1 {
		t.Errorf("events = %d, want 1", got)
	}
}

// TestConvergenceStagesChain: a stage closed with Stage or
// StageExclusive starts the next at its own closing clock reading, so
// chained stages leave no gap but the one before the first mark and the
// one before Finish. The clock here advances one second per reading.
func TestConvergenceStagesChain(t *testing.T) {
	clk := &fakeClock{}
	c := NewConvergence(New(), nil, func() float64 { clk.advance(1); return clk.t })
	ev := c.Begin(ConvUpdate)
	m := ev.Stage(StageIngest, ev.Mark())
	m = ev.StageExclusive(StageSelect, m)
	ev.Stage(StageForwarding, m)
	ev.Finish()
	if total, stageSum := sums(c); stageSum != 3 || total != 5 {
		t.Errorf("total %v, stage sum %v; want 5 and 3 (three one-second stages, two gaps)", total, stageSum)
	}
}

// TestConvergenceEventIDHandoff covers the rib→fib boundary contract:
// only the compile stamped with the active event's ID is attributed;
// stale IDs (a debounced flush landing after Finish) and foreign IDs
// fall through to the standalone compile family.
func TestConvergenceEventIDHandoff(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	c := NewConvergence(r, nil, clk.now)

	first := c.Begin(ConvChurn)
	second := c.Begin(ConvChurn)
	if got := c.ActiveID(); got != second.id {
		t.Fatalf("ActiveID = %d, want newest event %d", got, second.id)
	}

	c.ObserveCompileFor(first.id, 0.003) // superseded: not attributed
	c.ObserveCompileFor(0, 0.003)        // unstamped flush: not attributed
	c.ObserveCompileFor(second.id, 0.004)

	second.Finish()
	if _, stageSum := sums(c); math.Abs(stageSum-0.004) > 1e-12 {
		t.Errorf("attributed stage sum = %v, want 0.004", stageSum)
	}
	if got := c.ActiveID(); got != 0 {
		t.Errorf("ActiveID after Finish = %d, want 0", got)
	}
	c.ObserveCompileFor(second.id, 0.005) // after Finish: ignored
	if got := c.StageCount(StageFIBCompile); got != 1 {
		// Only the attributed compile reached the stage histogram: the
		// superseded, unstamped, and post-Finish ones all fell through
		// to the standalone compile family.
		t.Errorf("fib_compile count = %d, want 1", got)
	}
	first.Finish()
}

func TestConvergenceSpans(t *testing.T) {
	r := New()
	tr := NewTracer(nil, 128)
	clk := &fakeClock{}
	c := NewConvergence(r, tr, clk.now)

	ev := c.Begin(ConvFailover)
	m := ev.Mark()
	clk.advance(0.5)
	ev.Stage(StageGeoRR, m)
	m = ev.Mark()
	clk.advance(0.25)
	ev.StageExclusive(StageForwarding, m)
	ev.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want parent + 2 stage children", len(spans))
	}
	var names []string
	for _, s := range spans {
		if s.Layer != "convergence" {
			t.Errorf("span layer = %q, want convergence", s.Layer)
		}
		if s.Trace != spans[0].Trace {
			t.Errorf("stage span on trace %d, want parent's %d", s.Trace, spans[0].Trace)
		}
		names = append(names, s.Name)
	}
	want := []string{ConvFailover, StageGeoRR, StageForwarding}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("span[%d] = %q, want %q", i, names[i], want[i])
		}
	}

	// The ring's eviction counter is exported once a tracer is attached.
	if !strings.Contains(r.Render(), "trace_dropped_total 0") {
		t.Errorf("Render missing trace_dropped_total:\n%s", r.Render())
	}
}

// TestConvergenceSecondsByKind: each event's end-to-end time lands in
// its own kind's convergence_seconds child, and every kind's child
// counts what its convergence_events_total child counts.
func TestConvergenceSecondsByKind(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	c := NewConvergence(r, nil, clk.now)
	for _, d := range []float64{0.002, 0.004} {
		ev := c.Begin(ConvFailover)
		clk.advance(d)
		ev.Finish()
	}
	ev := c.Begin(ConvUpdate)
	clk.advance(0.5)
	ev.Finish()

	out := r.Render()
	for _, want := range []string{
		`convergence_seconds_count{kind="failover"} 2`,
		`convergence_seconds_sum{kind="failover"} 0.006`,
		`convergence_seconds_count{kind="update"} 1`,
		`convergence_seconds_sum{kind="update"} 0.5`,
		`convergence_seconds_count{kind="drain"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q", want)
		}
	}
	for _, k := range ConvKinds {
		if got, want := c.kinds[k].total.Count(), c.kinds[k].events.Value(); got != want {
			t.Errorf("kind %s: convergence_seconds count %d, convergence_events_total %d", k, got, want)
		}
	}
}

func TestConvergenceNilSafe(t *testing.T) {
	var c *Convergence
	if ev := c.Begin(ConvUpdate); ev != nil {
		t.Fatalf("nil Convergence.Begin = %v, want nil", ev)
	}
	c.ObserveCompileFor(1, 0.1)
	if c.ActiveID() != 0 || c.Events() != 0 {
		t.Error("nil Convergence accessors must return zeros")
	}
	if c.StageQuantile(StageIngest, 0.5) != 0 || c.StageCount(StageIngest) != 0 {
		t.Error("nil Convergence stage accessors must return zeros")
	}

	var ev *ConvEvent
	m := ev.Mark()
	ev.Stage(StageIngest, m)
	ev.StageExclusive(StageForwarding, m)
	ev.Finish()
}

// TestConvergenceZeroQuantilesDeterministic pins the virtual-clock
// rendering: all-zero observations interpolate inside the first bucket
// (up to 1µs), so the quantile gauges are nonzero but exact — safe to
// pin in scenario goldens.
func TestConvergenceZeroQuantilesDeterministic(t *testing.T) {
	r := New()
	clk := &fakeClock{}
	c := NewConvergence(r, nil, clk.now)
	for i := 0; i < 100; i++ {
		ev := c.Begin(ConvChurn)
		m := ev.Mark()
		ev.Stage(StageIngest, m)
		ev.Finish()
	}
	if got, want := c.StageQuantile(StageIngest, 0.5), 5e-07; math.Abs(got-want) > 1e-15 {
		t.Errorf("all-zero p50 = %v, want %v", got, want)
	}
	if got, want := c.StageQuantile(StageIngest, 0.99), 9.9e-07; math.Abs(got-want) > 1e-15 {
		t.Errorf("all-zero p99 = %v, want %v", got, want)
	}
	if r.Render() != r.Render() {
		t.Error("Render not deterministic across calls")
	}
}

// TestHistogramVecConcurrentRender hammers one HistogramVec label from
// many writers while readers render and snapshot the registry, checking
// that every rendered _count/_sum pair is monotone over time. Under
// -race this also proves the Observe fast path publishes safely.
func TestHistogramVecConcurrentRender(t *testing.T) {
	r := New()
	vec := r.HistogramVec("hammer_stage_seconds", "", DefBuckets, "stage")
	hs := []*Histogram{vec.With("a"), vec.With("b")}

	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := hs[w%len(hs)]
			for i := 0; i < iters; i++ {
				h.Observe(float64(i%1000) / 1e6)
			}
		}(w)
	}

	parse := func(render, sample string) float64 {
		for _, line := range strings.Split(render, "\n") {
			if rest, ok := strings.CutPrefix(line, sample+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Errorf("bad sample %q: %v", line, err)
				}
				return v
			}
		}
		return -1 // not rendered yet
	}
	var rg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			lastCount, lastSum := -1.0, -1.0
			for i := 0; i < 100; i++ {
				out := r.Render()
				_ = r.Snapshot()
				count := parse(out, `hammer_stage_seconds_count{stage="a"}`)
				sum := parse(out, `hammer_stage_seconds_sum{stage="a"}`)
				if count < lastCount {
					t.Errorf("count went backwards: %v -> %v", lastCount, count)
				}
				if sum < lastSum {
					t.Errorf("sum went backwards: %v -> %v", lastSum, sum)
				}
				lastCount, lastSum = count, sum
			}
		}()
	}
	wg.Wait()
	rg.Wait()

	var total uint64
	for _, h := range hs {
		total += h.Count()
	}
	if total != workers*iters {
		t.Errorf("total observations = %d, want %d", total, workers*iters)
	}
}
