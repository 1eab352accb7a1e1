package experiments

import (
	"strings"
	"testing"
)

// TestRIBScaleStudy runs the study at a CI-sized table and pins its
// correctness gates: zero sharded-vs-sequential mismatches, zero
// delta-vs-table lookup disagreements, and delta patches far cheaper
// than the full compile they replace.
func TestRIBScaleStudy(t *testing.T) {
	res := RIBScaleStudy(RIBScaleConfig{Prefixes: 30_000})
	if res.Prefixes != 30_000 {
		t.Fatalf("Prefixes = %d, want 30000", res.Prefixes)
	}
	if res.EquivMismatches != 0 {
		t.Errorf("sharded-vs-sequential mismatches = %d, want 0", res.EquivMismatches)
	}
	if res.DeltaMismatch != 0 {
		t.Errorf("delta lookup mismatches = %d, want 0", res.DeltaMismatch)
	}
	if res.BestChangedTotal == 0 {
		t.Error("churn produced no best-path changes; workload is vacuous")
	}
	if res.DeltaMean <= 0 || res.FullCompile <= 0 {
		t.Fatalf("degenerate timings: delta=%v full=%v", res.DeltaMean, res.FullCompile)
	}
	if res.DeltaMean*10 > res.FullCompile {
		t.Errorf("delta mean %v not ≪ full compile %v", res.DeltaMean, res.FullCompile)
	}
	out := res.Render()
	for _, want := range []string{"RIB scale study", "mismatches: 0 (want 0)", "delta patch"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestRIBScaleDefaults pins the paper-scale defaults so the -run
// ribscale CLI path stays at 400k prefixes.
func TestRIBScaleDefaults(t *testing.T) {
	cfg := RIBScaleConfig{}.withDefaults()
	if cfg.Prefixes != 400_000 {
		t.Errorf("default Prefixes = %d, want 400000", cfg.Prefixes)
	}
	if cfg.Seed != 0x51B5CA1E {
		t.Errorf("default Seed = %#x", cfg.Seed)
	}
}

// TestInternetPrefixesShape checks the synthetic table generator:
// exact count, uniqueness, and cover/specific mixture.
func TestInternetPrefixesShape(t *testing.T) {
	ps := internetPrefixes(10_000)
	if len(ps) != 10_000 {
		t.Fatalf("len = %d, want 10000", len(ps))
	}
	seen := make(map[string]bool, len(ps))
	covers := 0
	for _, p := range ps {
		if seen[p.String()] {
			t.Fatalf("duplicate prefix %v", p)
		}
		seen[p.String()] = true
		if p.Bits() == 16 {
			covers++
		}
	}
	if covers == 0 {
		t.Error("no /16 covers generated")
	}
}
