package adaptive

import (
	"math"
	"net/netip"
	"testing"
)

// --- Damper -----------------------------------------------------------

func TestDamperPenaltyDecay(t *testing.T) {
	d := &Damper{}
	d.Flap(0)
	if got := d.Penalty(0); got != 1000 {
		t.Fatalf("penalty at t=0: %v, want 1000", got)
	}
	if got := d.Penalty(15); math.Abs(got-500) > 1e-9 {
		t.Errorf("penalty after one half-life: %v, want 500", got)
	}
	if got := d.Penalty(45); math.Abs(got-125) > 1e-9 {
		t.Errorf("penalty after three half-lives: %v, want 125", got)
	}
}

// TestDamperSuppressReuseCycle walks the canonical cycle: three rapid
// flaps cross the suppress threshold, the penalty decays, and only the
// reuse threshold releases the suppression.
func TestDamperSuppressReuseCycle(t *testing.T) {
	d := &Damper{}
	if d.Flap(0) {
		t.Fatal("one flap must not suppress")
	}
	if d.Flap(0.5) {
		t.Fatal("two rapid flaps (~2000 penalty) must not suppress")
	}
	if !d.Flap(1.0) {
		t.Fatal("three rapid flaps (~3000 penalty) must suppress")
	}
	if !d.Suppressed(1.0) {
		t.Fatal("suppression must hold at onset")
	}
	// Penalty ≈ 2500..3000 at t=1. It must stay suppressed while above
	// the reuse threshold (hysteresis: 800 < penalty < 2500 keeps the
	// current state) and release only below 800.
	if !d.Suppressed(10) {
		t.Error("still above reuse threshold at t=10; must stay suppressed")
	}
	// 2^(-t/15) decay from <3000 reaches <800 before t ≈ 1 + 15*log2(3000/800) ≈ 29.6.
	if d.Suppressed(40) {
		t.Error("penalty long below reuse threshold at t=40; must release")
	}
	if d.Flips() != 3 {
		t.Errorf("flips = %d, want 3", d.Flips())
	}
}

// TestDamperSlowFlapsNeverSuppress: flaps spaced several half-lives
// apart decay away before the penalty can accumulate.
func TestDamperSlowFlapsNeverSuppress(t *testing.T) {
	d := &Damper{}
	for i := 0; i < 10; i++ {
		if d.Flap(float64(i) * 60) { // 4 half-lives apart
			t.Fatalf("flap %d at 60s spacing suppressed", i)
		}
	}
}

// TestDamperEdgeAtThreshold: penalty exactly at the suppress threshold
// suppresses; exactly at the reuse threshold stays suppressed (release
// requires strictly below).
func TestDamperEdgeAtThreshold(t *testing.T) {
	d := &Damper{penalty: suppressThreshold - penaltyPerFlap}
	if !d.Flap(0) {
		t.Fatal("penalty == suppressThreshold must suppress")
	}
	d2 := &Damper{penalty: reuseThreshold, suppressed: true}
	if !d2.Suppressed(0) {
		t.Error("penalty == reuseThreshold must stay suppressed (strictly-below release)")
	}
}

// --- evaluate ---------------------------------------------------------

// evalFixture builds a two-candidate world: PoP 1 is the geographic
// choice, PoP 2 the measured alternative. The state func serves canned
// snapshots.
type evalFixture struct {
	cands   []Cand
	states  map[Key]Snapshot
	prefix  netip.Prefix
	geoBest int
}

func newEvalFixture(t *testing.T) *evalFixture {
	t.Helper()
	return &evalFixture{
		cands: []Cand{
			{PoP: 1, Code: "GEO", Router: netip.MustParseAddr("10.0.0.1"), GeoKm: 500},
			{PoP: 2, Code: "ALT", Router: netip.MustParseAddr("10.0.0.2"), GeoKm: 3000},
		},
		states:  map[Key]Snapshot{},
		prefix:  pfx(t, "203.0.113.0/24"),
		geoBest: 0,
	}
}

func (f *evalFixture) set(pop int, smoothed, jitter float64, samples uint64, lastAt float64) {
	f.states[Key{PoP: pop, Prefix: f.prefix}] = Snapshot{
		SmoothedMs: smoothed, JitterMs: jitter, Samples: samples, LastAt: lastAt,
	}
}

func (f *evalFixture) eval(cfg StabilityConfig, incumbent int, now float64) decision {
	return evaluate(cfg.withDefaults(), f.cands, f.geoBest, incumbent,
		func(k Key) Snapshot { return f.states[k] }, f.prefix, now)
}

var evalCfg = StabilityConfig{
	ApplyMarginMs: 20, MinSamples: 3,
}

// TestEvaluateApplyThreshold walks the install margin: advantage must
// strictly exceed ApplyMarginMs + jitterFactor*jitter.
func TestEvaluateApplyThreshold(t *testing.T) {
	cases := []struct {
		name       string
		geoMs      float64
		altMs      float64
		altJitter  float64
		wantActive bool
		wantTarget int
	}{
		{"well_over_margin", 150, 100, 0, true, 2},
		{"exactly_at_margin_not_enough", 120, 100, 0, false, 0},
		{"just_over_margin", 120.001, 100, 0, true, 2},
		{"under_margin", 110, 100, 0, false, 0},
		{"jitter_widens_margin", 130, 100, 10, false, 0}, // need >20+2*10=40
		{"beats_jitter_widened_margin", 141, 100, 10, true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newEvalFixture(t)
			f.set(1, tc.geoMs, 0, 5, 10)
			f.set(2, tc.altMs, tc.altJitter, 5, 10)
			d := f.eval(evalCfg, 0, 10)
			if d.active != tc.wantActive {
				t.Fatalf("active = %v, want %v", d.active, tc.wantActive)
			}
			if d.active && d.target.PoP != tc.wantTarget {
				t.Errorf("target = %d, want %d", d.target.PoP, tc.wantTarget)
			}
		})
	}
}

// TestEvaluateReleaseHysteresis: an installed override holds until the
// advantage drops below releaseMarginMs — the band between the two
// margins neither installs nor releases.
func TestEvaluateReleaseHysteresis(t *testing.T) {
	f := newEvalFixture(t)
	// In the hysteresis band: advantage 15ms (between release 8 and apply 20).
	f.set(1, 115, 0, 5, 10)
	f.set(2, 100, 0, 5, 10)
	if d := f.eval(evalCfg, 0, 10); d.active {
		t.Error("15ms advantage must not install (below apply margin)")
	}
	if d := f.eval(evalCfg, 2, 10); !d.active || d.target.PoP != 2 {
		t.Error("15ms advantage must keep an installed override (above release margin)")
	}
	// Below the release floor: withdraw.
	f.set(1, 107, 0, 5, 10)
	if d := f.eval(evalCfg, 2, 10); d.active {
		t.Error("7ms advantage must release the override")
	}
}

// TestEvaluateWarmAndFreshGates: cold or stale estimates cannot drive
// decisions, and a stale incumbent releases.
func TestEvaluateWarmAndFreshGates(t *testing.T) {
	f := newEvalFixture(t)
	f.set(1, 200, 0, 2, 10) // geo choice cold (2 < MinSamples 3)
	f.set(2, 100, 0, 5, 10)
	if d := f.eval(evalCfg, 0, 10); d.active {
		t.Error("cold geographic estimate must block installs")
	}
	f.set(1, 200, 0, 5, 10)
	f.set(2, 100, 0, 2, 10) // challenger cold
	if d := f.eval(evalCfg, 0, 10); d.active {
		t.Error("cold challenger must not install")
	}
	f.set(2, 100, 0, 5, 10)
	if d := f.eval(evalCfg, 0, 50); d.active {
		t.Error("stale estimates (age 40 > 30) must not install")
	}
	// Stale incumbent: geo fresh, incumbent stale → release.
	f.set(1, 200, 0, 5, 45)
	f.set(2, 100, 0, 5, 10)
	if d := f.eval(evalCfg, 2, 50); d.active {
		t.Error("stale incumbent must release")
	}
}

// TestEvaluateSwitchHysteresis: with an incumbent installed, a third
// egress must beat the *incumbent* by the full apply margin to take
// over; merely being best is not enough.
func TestEvaluateSwitchHysteresis(t *testing.T) {
	f := newEvalFixture(t)
	f.cands = append(f.cands, Cand{PoP: 3, Code: "ALT2",
		Router: netip.MustParseAddr("10.0.0.3"), GeoKm: 4000})
	f.set(1, 200, 0, 5, 10) // geo
	f.set(2, 100, 0, 5, 10) // incumbent
	f.set(3, 90, 0, 5, 10)  // slightly better challenger: 10 < 20 margin
	if d := f.eval(evalCfg, 2, 10); !d.active || d.target.PoP != 2 {
		t.Errorf("10ms challenger lead must not displace incumbent; got %+v", d)
	}
	f.set(3, 75, 0, 5, 10) // 25 > 20: switch
	if d := f.eval(evalCfg, 2, 10); !d.active || d.target.PoP != 3 {
		t.Errorf("25ms challenger lead must switch; got %+v", d)
	}
}

// TestEvaluateAgreementAndTies: measurements agreeing with geography
// produce no override, and equal-delay candidates tie to the lowest
// PoP id (which here is the geographic choice → no override).
func TestEvaluateAgreementAndTies(t *testing.T) {
	f := newEvalFixture(t)
	f.set(1, 100, 0, 5, 10)
	f.set(2, 180, 0, 5, 10)
	if d := f.eval(evalCfg, 0, 10); d.active {
		t.Error("geo-best measured fastest: no override")
	}
	f.set(2, 100, 0, 5, 10)
	if d := f.eval(evalCfg, 0, 10); d.active {
		t.Error("exact tie breaks to lowest PoP id (the geo choice): no override")
	}
}

// TestEvaluateIncumbentVanished: an incumbent no longer in the
// candidate set releases.
func TestEvaluateIncumbentVanished(t *testing.T) {
	f := newEvalFixture(t)
	f.set(1, 200, 0, 5, 10)
	f.set(2, 100, 0, 5, 10)
	if d := f.eval(evalCfg, 7, 10); d.active {
		t.Error("unknown incumbent PoP must release")
	}
}

func TestStabilityDefaults(t *testing.T) {
	c := StabilityConfig{}.withDefaults()
	if c.ApplyMarginMs != DefaultApplyMarginMs || c.MinSamples != DefaultMinSamples {
		t.Errorf("withDefaults() = %+v", c)
	}
}
