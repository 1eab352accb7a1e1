package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var (
	update = flag.Bool("update", false, "regenerate golden traces")
	seeds  = flag.Int("seeds", 3, "seeds per spec in the sweep test")
)

// checkGolden diffs one artefact of a run against its checked-in golden
// (or rewrites the golden under -update).
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden (run with -update to create): %v", err)
	}
	if string(want) != got {
		t.Errorf("diverged from golden %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestScenarioGolden runs every embedded spec and diffs its behavioural
// trace and its declared-metric digest byte-for-byte against the
// checked-in goldens. Regenerate with
//
//	go test ./internal/scenario -run Golden -update
func TestScenarioGolden(t *testing.T) {
	t.Parallel() // runs share nothing; under -race the serial suite outlasts the default timeout
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Name != name {
				t.Fatalf("spec file %s.json names itself %q", name, spec.Name)
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("invariant violation:\n%s\n%v", res.Trace, err)
			}
			checkGolden(t, name+".trace", res.Trace)
			checkGolden(t, name+".metrics", res.Metrics)
		})
	}
}

// TestDeclaredFamilies pins the declared list's shape: sorted (declared
// binary-searches it), each entry with its reason, and every family
// actually registered by a deployment — a renamed or deleted family
// must fail here, not silently drop out of the digest.
func TestDeclaredFamilies(t *testing.T) {
	if !sort.SliceIsSorted(declaredFamilies, func(i, j int) bool {
		return declaredFamilies[i].name < declaredFamilies[j].name
	}) {
		t.Error("declaredFamilies is not sorted by name")
	}
	// Every subsystem registers its families when it is built, so an
	// assembled deployment with the flow engine on has them all.
	spec, err := Load("flows-multipath-offload")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	exposition := e.Telemetry.Render()
	for _, f := range declaredFamilies {
		if f.why == "" {
			t.Errorf("declared family %s has no reason", f.name)
		}
		if !strings.Contains(exposition, "# TYPE "+f.name+" ") {
			t.Errorf("declared family %s is not in the registry", f.name)
		}
	}
}

// TestUndeclaredMetricLeavesGoldensUnchanged registers a scratch counter
// on the scenario's own registry, moves it, and requires both goldens of
// the spec to hold byte-for-byte: the goldens pin behaviour, not the
// metric inventory.
func TestUndeclaredMetricLeavesGoldensUnchanged(t *testing.T) {
	spec, err := Load("steady-state")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	e.Telemetry.Counter("scratch_undeclared_total", "not in declaredFamilies").Add(7)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Telemetry.Snapshot(), "scratch_undeclared_total 7") {
		t.Fatal("scratch counter did not reach the scenario registry")
	}
	checkGolden(t, "steady-state.trace", res.Trace)
	checkGolden(t, "steady-state.metrics", res.Metrics)
}

// TestScenarioDeterminism runs the busiest spec twice in one process and
// requires byte-identical traces: the whole stack — topology generation,
// liveness timing, FIB recompiles, media flows — must be a pure function
// of the spec.
func TestScenarioDeterminism(t *testing.T) {
	t.Parallel()
	spec, err := Load("churn-failover")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Trace != b.Trace {
		t.Errorf("two runs of the same spec diverged\n--- first ---\n%s--- second ---\n%s", a.Trace, b.Trace)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("two runs of the same spec diverged in metrics\n--- first ---\n%s--- second ---\n%s", a.Metrics, b.Metrics)
	}
}

// TestScenarioSeedSweep re-runs the two event-heaviest specs under
// -seeds fresh seeds each. A failure arrives pre-shrunk to its minimal
// event prefix with a copy-pasteable repro command.
func TestScenarioSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is not for -short")
	}
	t.Parallel()
	for _, name := range []string{"churn", "churn-400k", "churn-failover", "adaptive-geo-wrong", "adaptive-flap-damp", "flows-multipath-offload"} {
		spec, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < *seeds; i++ {
			seed := uint64(7 + i) // small fixed seeds, distinct from the default
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				for _, f := range Sweep(spec, []uint64{seed}) {
					t.Errorf("spec %s seed %d fails with %d/%d events: %v\nrepro: %s",
						name, f.Seed, f.MinEvents, len(spec.Events), f.Err, f.Repro)
				}
			})
		}
	}
}

// TestParseSpecRejectsRetiredKeys: keys whose knobs became constants
// fail the parse instead of silently running a stale spec on defaults.
func TestParseSpecRejectsRetiredKeys(t *testing.T) {
	for _, tc := range []struct{ key, spec string }{
		{"vantages", `{"name":"x","vantages":["LON"],"events":[]}`},
		{"endSec", `{"name":"x","endSec":30,"events":[]}`},
		{"applyMarginMs", `{"name":"x","adaptive":{"applyMarginMs":20},"events":[]}`},
		{"releaseMarginMs", `{"name":"x","adaptive":{"releaseMarginMs":8},"events":[]}`},
		{"jitterFactor", `{"name":"x","adaptive":{"jitterFactor":2},"events":[]}`},
		{"stalenessSec", `{"name":"x","adaptive":{"stalenessSec":30},"events":[]}`},
		{"penaltyPerFlap", `{"name":"x","adaptive":{"penaltyPerFlap":1000},"events":[]}`},
		{"penaltyHalfLifeSec", `{"name":"x","adaptive":{"penaltyHalfLifeSec":15},"events":[]}`},
		{"suppressThreshold", `{"name":"x","adaptive":{"suppressThreshold":2500},"events":[]}`},
		{"reuseThreshold", `{"name":"x","adaptive":{"reuseThreshold":800},"events":[]}`},
		{"epochSec", `{"name":"x","flows":{"epochSec":0.1},"events":[]}`},
		{"offloadBelowMs", `{"name":"x","flows":{"offloadBelowMs":2},"events":[]}`},
		{"reclaimAboveMs", `{"name":"x","flows":{"reclaimAboveMs":10},"events":[]}`},
		{"flows.minSamples", `{"name":"x","flows":{"minSamples":3},"events":[]}`},
	} {
		_, err := ParseSpec([]byte(tc.spec))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: ParseSpec error = %v, want an unknown-field rejection", tc.key, err)
		}
	}
}

// TestSpecValidation exercises the cheap static checks sweeps rely on.
func TestSpecValidation(t *testing.T) {
	bad := []string{
		`{"events":[]}`, // no name
		`{"name":"x","events":[{"at":0.1,"op":"link-down","link":"A-B"}]}`,                                                         // inside warmup
		`{"name":"x","events":[{"at":1,"op":"link-down","link":"LONASH"}]}`,                                                        // malformed link
		`{"name":"x","events":[{"at":1,"op":"flap-link","link":"A-B","cycles":3}]}`,                                                // no period
		`{"name":"x","events":[{"at":1,"op":"announce-burst","pop":"SIN"}]}`,                                                       // no count
		`{"name":"x","events":[{"at":1,"op":"media-flow","pop":"LON","prefix":"#0"}]}`,                                             // no duration
		`{"name":"x","events":[{"at":1,"op":"warp-core-breach"}]}`,                                                                 // unknown op
		`{"name":"x","events":[{"at":1,"op":"link-down","link":"A-B","bogus":true}]}`,                                              // unknown field
		`{"name":"x","events":[{"at":1,"op":"link-down","link":"A-B"},{"at":2,"op":"link-up","link":"A-B"}]}`,                      // inside settle
		`{"name":"x","events":[{"at":1,"op":"probe-bias","pop":"geo","prefix":"#0","extraMs":50}]}`,                                // adaptive op, no adaptive block
		`{"name":"x","adaptive":{"halfLifeSec":-1},"events":[]}`,                                                                   // negative half-life
		`{"name":"x","adaptive":{"prefixes":["10.0.0.0/8"]},"events":[]}`,                                                          // literal prefix, not "#N"
		`{"name":"x","adaptive":{},"events":[{"at":1,"op":"probe-oscillate","pop":"geo","prefix":"#0","extraMs":50,"cycles":3}]}`,  // no period
		`{"name":"x","adaptive":{},"events":[{"at":1,"op":"probe-oscillate","pop":"geo","prefix":"#0","periodSec":2,"cycles":3}]}`, // no extraMs
		`{"name":"x","adaptive":{},"events":[{"at":1,"op":"probe-bias","prefix":"#0","extraMs":50}]}`,                              // no pop
		`{"name":"x","adaptive":{},"events":[{"at":1,"op":"checkpoint","pop":"LON"}]}`,                                             // checkpoint takes no operands
		`{"name":"x","events":[{"at":1,"op":"checkpoint"}]}`,                                                                       // checkpoint with neither adaptive nor flows
		`{"name":"x","events":[{"at":1,"op":"agg-flows","link":"LON-AMS","count":10,"ratePps":50,"durSec":5}]}`,                    // agg-flows, no flows block
		`{"name":"x","flows":{},"events":[{"at":1,"op":"agg-flows","link":"LONAMS","count":10,"ratePps":50,"durSec":5}]}`,          // malformed link
		`{"name":"x","flows":{},"events":[{"at":1,"op":"agg-flows","link":"LON-AMS","ratePps":50,"durSec":5}]}`,                    // no count
		`{"name":"x","flows":{},"events":[{"at":1,"op":"agg-flows","link":"LON-AMS","count":10,"durSec":5}]}`,                      // no rate
		`{"name":"x","flows":{"dupFraction":1.5},"events":[]}`,                                                                     // dupFraction outside [0,1]
		`{"name":"x","flows":{"maxSkewMs":-1},"events":[]}`,                                                                        // negative skew gate
	}
	for i, in := range bad {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("case %d: bad spec accepted: %s", i, in)
		}
	}
	ok := `{"name":"x","events":[
		{"at":1,"op":"link-down","link":"LON-ASH"},
		{"at":3.5,"op":"media-flow","pop":"LON","prefix":"#0","durSec":2},
		{"at":3.5,"op":"link-up","link":"LON-ASH"}]}`
	if _, err := ParseSpec([]byte(ok)); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	okAdaptive := `{"name":"x","adaptive":{"intervalSec":0.5,"budget":4,"prefixes":["#0","#3"]},"events":[
		{"at":1,"op":"probe-bias","pop":"geo","prefix":"#0","extraMs":50},
		{"at":3.5,"op":"probe-oscillate","pop":"SIN","prefix":"#3","extraMs":-30,"periodSec":2,"cycles":2},
		{"at":10,"op":"checkpoint"},
		{"at":13,"op":"probe-bias","pop":"geo","prefix":"#0","extraMs":0}]}`
	if _, err := ParseSpec([]byte(okAdaptive)); err != nil {
		t.Errorf("good adaptive spec rejected: %v", err)
	}
	okFlows := `{"name":"x","flows":{"maxPaths":2,"maxSkewMs":5,"offload":true,"dwellSec":2},"events":[
		{"at":1,"op":"agg-flows","link":"LON-AMS","count":50,"ratePps":25,"durSec":10,"directMs":60},
		{"at":1,"op":"checkpoint"}]}`
	if _, err := ParseSpec([]byte(okFlows)); err != nil {
		t.Errorf("good flows spec rejected: %v", err)
	}
}
