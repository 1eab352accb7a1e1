package adaptive

import (
	"net/netip"
	"strings"
	"sync"
	"testing"

	"vns/internal/netsim"
	"vns/internal/telemetry"
)

// fakeSink records override calls in order.
type fakeSink struct {
	mu        sync.Mutex
	overrides map[netip.Prefix]netip.Addr
	log       []string
}

func newFakeSink() *fakeSink {
	return &fakeSink{overrides: make(map[netip.Prefix]netip.Addr)}
}

func (s *fakeSink) SetOverride(p netip.Prefix, r netip.Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.overrides[p] = r
	s.log = append(s.log, "set "+p.String()+" "+r.String())
	return nil
}

func (s *fakeSink) ClearOverride(p netip.Prefix) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, had := s.overrides[p]
	delete(s.overrides, p)
	s.log = append(s.log, "clear "+p.String())
	return had
}

func (s *fakeSink) calls() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// probeWorld serves per-PoP RTTs, mutable mid-test, and counts probes.
type probeWorld struct {
	mu    sync.Mutex
	rtt   map[int]float64
	calls int
}

func (w *probeWorld) probe(pop int, _ netip.Prefix) (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	ms, ok := w.rtt[pop]
	return ms, ok
}

func (w *probeWorld) set(pop int, ms float64) {
	w.mu.Lock()
	w.rtt[pop] = ms
	w.mu.Unlock()
}

// fastStab is a stability config that reacts within a round or two:
// warm after one sample.
var fastStab = StabilityConfig{ApplyMarginMs: 20, MinSamples: 1}

func twoCands() []Cand {
	return []Cand{
		{PoP: 1, Code: "GEO", Router: netip.MustParseAddr("10.0.0.1"), GeoKm: 500},
		{PoP: 2, Code: "ALT", Router: netip.MustParseAddr("10.0.0.2"), GeoKm: 3000},
	}
}

// buildController wires a controller over a fresh sim/world/sink with
// a near-zero half-life so each sample dominates the estimate.
func buildController(t *testing.T, cfg Config) (*Controller, *netsim.Sim, *probeWorld, *fakeSink) {
	t.Helper()
	sim := &netsim.Sim{}
	world := &probeWorld{rtt: map[int]float64{}}
	sink := newFakeSink()
	cfg.Sim = sim
	cfg.Probe = world.probe
	cfg.Sink = sink
	if cfg.HalfLifeSec == 0 {
		cfg.HalfLifeSec = 0.01
	}
	if cfg.Stability == (StabilityConfig{}) {
		cfg.Stability = fastStab
	}
	return NewController(cfg), sim, world, sink
}

// rounds schedules one Round per second from t=1 to t=n.
func rounds(sim *netsim.Sim, c *Controller, from, to int) {
	for t := from; t <= to; t++ {
		sim.Schedule(float64(t), c.Round)
	}
}

func TestControllerInstallsAndWithdraws(t *testing.T) {
	c, sim, world, sink := buildController(t, Config{})
	p := pfx(t, "203.0.113.0/24")
	if err := c.Track(p, twoCands()); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200) // geographic choice measured slow
	world.set(2, 100) // distant PoP measured fast

	rounds(sim, c, 1, 3)
	sim.Run(3)
	if got := sink.calls(); len(got) != 1 || got[0] != "set 203.0.113.0/24 10.0.0.2" {
		t.Fatalf("after contradiction: calls = %v, want one install of 10.0.0.2", got)
	}
	st := c.Status(sim.Now())
	if len(st.Overrides) != 1 || st.Overrides[0].PoP != 2 || st.Overrides[0].AdvantageMs < 80 {
		t.Fatalf("status overrides = %+v", st.Overrides)
	}

	// Geography becomes right again: advantage under the release floor.
	world.set(1, 101)
	rounds(sim, c, 4, 6)
	sim.Run(6)
	if got := sink.calls(); len(got) != 2 || got[1] != "clear 203.0.113.0/24" {
		t.Fatalf("after agreement: calls = %v, want a withdraw", got)
	}
	if st := c.Status(sim.Now()); len(st.Overrides) != 0 {
		t.Fatalf("override still reported after withdraw: %+v", st.Overrides)
	}
}

// TestControllerMinSamplesGate: with MinSamples=3 nothing may be
// installed before the third round's samples.
func TestControllerMinSamplesGate(t *testing.T) {
	stab := fastStab
	stab.MinSamples = 3
	c, sim, world, sink := buildController(t, Config{Stability: stab})
	if err := c.Track(pfx(t, "203.0.113.0/24"), twoCands()); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200)
	world.set(2, 100)
	rounds(sim, c, 1, 2)
	sim.Run(2)
	if got := sink.calls(); len(got) != 0 {
		t.Fatalf("installed on cold estimates: %v", got)
	}
	rounds(sim, c, 3, 3)
	sim.Run(3)
	if got := sink.calls(); len(got) != 1 {
		t.Fatalf("warm estimates must install: %v", got)
	}
}

// TestControllerDampsOscillation reproduces the acceptance criterion:
// an oscillating measurement gets at most one switch cycle (install +
// withdraw) before damping suppresses it, and once the measurement
// steadies and the penalty decays, reuse reinstalls.
func TestControllerDampsOscillation(t *testing.T) {
	c, sim, world, sink := buildController(t, Config{})
	p := pfx(t, "203.0.113.0/24")
	if err := c.Track(p, twoCands()); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200)
	world.set(2, 100)
	rounds(sim, c, 1, 2)                                               // install at t=1
	sim.Schedule(2.5, func() { world.set(1, 100); world.set(2, 200) }) // flip
	rounds(sim, c, 3, 3)                                               // withdraw at t=3 (flap 2)
	sim.Schedule(3.5, func() { world.set(1, 200); world.set(2, 100) }) // flip back
	rounds(sim, c, 4, 30)                                              // flap 3 at t=4 → suppressed; then steady
	sim.Run(30)

	got := sink.calls()
	want := []string{"set 203.0.113.0/24 10.0.0.2", "clear 203.0.113.0/24"}
	if len(got) < 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("churn before suppression: %v", got)
	}
	if len(got) > 2 {
		t.Fatalf("suppression leaked churn: %v (want exactly one install+withdraw cycle)", got)
	}
	st := c.Status(sim.Now())
	if len(st.Suppressed) != 1 || st.Suppressed[0].Flips != 3 {
		t.Fatalf("suppressed = %+v, want one prefix at 3 flips", st.Suppressed)
	}

	// Steady measurements + decay: penalty 2825@t=4 halves every 15s,
	// crossing the reuse threshold (800) near t=31.3 → reinstall.
	rounds(sim, c, 31, 35)
	sim.Run(35)
	got = sink.calls()
	if len(got) != 3 || got[2] != want[0] {
		t.Fatalf("after reuse: calls = %v, want a reinstall", got)
	}
	if st := c.Status(sim.Now()); len(st.Suppressed) != 0 || len(st.Overrides) != 1 {
		t.Fatalf("post-reuse status: %+v", st)
	}
}

// TestControllerBudget: with Budget=1 the round-robin cursor probes
// exactly one path per round and still converges once every path has
// enough samples.
func TestControllerBudget(t *testing.T) {
	stab := fastStab
	stab.MinSamples = 2
	c, sim, world, sink := buildController(t, Config{Budget: 1, Stability: stab})
	p1, p2 := pfx(t, "203.0.113.0/24"), pfx(t, "198.51.100.0/24")
	if err := c.Track(p1, twoCands()); err != nil {
		t.Fatal(err)
	}
	if err := c.Track(p2, []Cand{
		{PoP: 1, Code: "GEO", Router: netip.MustParseAddr("10.0.1.1"), GeoKm: 400},
		{PoP: 3, Code: "ALT", Router: netip.MustParseAddr("10.0.1.3"), GeoKm: 5000},
	}); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200)
	world.set(2, 100)
	world.set(3, 100)

	rounds(sim, c, 1, 4)
	sim.Run(4)
	world.mu.Lock()
	calls := world.calls
	world.mu.Unlock()
	if calls != 4 {
		t.Fatalf("4 rounds at budget 1 made %d probes, want 4", calls)
	}
	if got := sink.calls(); len(got) != 0 {
		t.Fatalf("one sample per path cannot clear MinSamples=2: %v", got)
	}

	rounds(sim, c, 5, 8) // second sweep: every path reaches 2 samples
	sim.Run(8)
	if got := sink.calls(); len(got) != 2 {
		t.Fatalf("after two sweeps both prefixes must override: %v", got)
	}
}

// TestControllerProbeLoss: lost probes ingest nothing and never panic.
func TestControllerProbeLoss(t *testing.T) {
	c, sim, world, sink := buildController(t, Config{})
	if err := c.Track(pfx(t, "203.0.113.0/24"), twoCands()); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200) // PoP 2 unmeasurable: probe returns ok=false
	rounds(sim, c, 1, 5)
	sim.Run(5)
	if got := sink.calls(); len(got) != 0 {
		t.Fatalf("half-measured prefix must not override: %v", got)
	}
	if st := c.Status(sim.Now()); st.Samples != 5 {
		t.Fatalf("samples = %d, want 5 (geo path only)", st.Samples)
	}
}

func TestTrackValidation(t *testing.T) {
	c, _, _, _ := buildController(t, Config{})
	p := pfx(t, "203.0.113.0/24")
	if err := c.Track(netip.Prefix{}, twoCands()); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := c.Track(p, nil); err == nil {
		t.Error("empty candidate set accepted")
	}
	if err := c.Track(p, []Cand{{PoP: 0, Router: netip.MustParseAddr("10.0.0.1")}}); err == nil {
		t.Error("zero PoP id accepted")
	}
	if err := c.Track(p, []Cand{{PoP: 1}}); err == nil {
		t.Error("invalid router accepted")
	}
	if err := c.Track(p, append(twoCands(), Cand{PoP: 2,
		Router: netip.MustParseAddr("10.0.0.9"), GeoKm: 1})); err == nil {
		t.Error("duplicate PoP accepted")
	}
	if err := c.Track(p, twoCands()); err != nil {
		t.Fatal(err)
	}
	if err := c.Track(p, twoCands()); err == nil {
		t.Error("duplicate prefix accepted")
	}
	c.Round()
	if err := c.Track(pfx(t, "198.51.100.0/24"), twoCands()); err == nil {
		t.Error("Track after start accepted")
	}
}

func TestControllerTelemetry(t *testing.T) {
	reg := telemetry.New()
	c, sim, world, _ := buildController(t, Config{Telemetry: reg})
	if err := c.Track(pfx(t, "203.0.113.0/24"), twoCands()); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200)
	world.set(2, 100)
	rounds(sim, c, 1, 3)
	sim.Run(3)

	if v := reg.Counter("adaptive_samples_ingested_total", "").Value(); v != 6 {
		t.Errorf("samples_ingested = %d, want 6", v)
	}
	if v := reg.CounterVec("adaptive_override_transitions_total", "", "op").With("install").Value(); v != 1 {
		t.Errorf("install transitions = %d, want 1", v)
	}
	if v := reg.Gauge("adaptive_overrides_active", "").Value(); v != 1 {
		t.Errorf("overrides_active = %v, want 1", v)
	}
	if v := reg.Gauge("adaptive_paths_tracked", "").Value(); v != 2 {
		t.Errorf("paths_tracked = %v, want 2", v)
	}
	out := reg.Render()
	for _, name := range []string{
		"adaptive_sample_rtt_ms", "adaptive_estimator_staleness_seconds",
		"adaptive_suppressed_active", "adaptive_probe_lost_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("render missing %s", name)
		}
	}
}

// TestControllerStartStop exercises the sim-scheduled loop: Start
// fires rounds every interval until Stop.
func TestControllerStartStop(t *testing.T) {
	c, sim, world, sink := buildController(t, Config{IntervalSec: 1})
	if err := c.Track(pfx(t, "203.0.113.0/24"), twoCands()); err != nil {
		t.Fatal(err)
	}
	world.set(1, 200)
	world.set(2, 100)
	c.Start()
	c.Start() // idempotent
	sim.Run(5)
	if got := sink.calls(); len(got) != 1 {
		t.Fatalf("scheduled rounds did not converge: %v", got)
	}
	st := c.Status(sim.Now())
	if st.Samples != 10 {
		t.Fatalf("5 scheduled rounds ingested %d samples, want 10", st.Samples)
	}
	c.Stop()
	sim.Run(10)
	if got := c.Status(sim.Now()).Samples; got != st.Samples+2 {
		// One already-scheduled round may still fire after Stop.
		if got != st.Samples {
			t.Fatalf("rounds kept firing after Stop: %d samples", got)
		}
	}
}

// TestControllerConcurrentStatus hammers Status/PathStates readers
// against live rounds; run with -race.
func TestControllerConcurrentStatus(t *testing.T) {
	c, sim, world, _ := buildController(t, Config{IntervalSec: 0.25})
	for i, s := range []string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24"} {
		if err := c.Track(pfx(t, s), []Cand{
			{PoP: 1, Code: "GEO", Router: netip.MustParseAddr("10.0.0.1"), GeoKm: 500},
			{PoP: 2 + i, Code: "ALT", Router: netip.MustParseAddr("10.0.0.2"), GeoKm: 3000},
		}); err != nil {
			t.Fatal(err)
		}
	}
	world.set(1, 200)
	world.set(2, 100)
	world.set(3, 90)
	world.set(4, 80)
	c.Start()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = c.Status(0)
				_ = c.PathStates()
				_ = c.maxStaleness()
			}
		}()
	}
	sim.Run(60)
	close(done)
	wg.Wait()
	if st := c.Status(sim.Now()); len(st.Overrides) != 3 {
		t.Fatalf("overrides = %+v, want all three prefixes", st.Overrides)
	}
}
