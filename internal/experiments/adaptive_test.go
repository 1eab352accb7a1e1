package experiments

import (
	"strings"
	"testing"
)

func TestAdaptiveStudy(t *testing.T) {
	e := NewEnv(Config{Seed: 11, NumAS: 400})
	r := AdaptiveStudy(e)

	if r.Prefixes < 100 {
		t.Fatalf("only %d tracked prefixes", r.Prefixes)
	}
	if r.Overridden == 0 {
		t.Fatal("controller overrode nothing: the corrupted geo DB should be delay-wrong somewhere")
	}
	if r.Overridden > r.Prefixes {
		t.Fatalf("overridden %d > tracked %d", r.Overridden, r.Prefixes)
	}
	// On the prefixes the controller moved, the measured exit must beat
	// the geographic one — that is the install criterion.
	geo50, ad50 := r.OverriddenGeoMs.Percentile(0.5), r.OverriddenAdaptiveMs.Percentile(0.5)
	if ad50 >= geo50 {
		t.Errorf("overridden p50: adaptive %.1fms >= geo %.1fms", ad50, geo50)
	}
	// Across all tracked prefixes adaptive can only help or match.
	if a, g := r.AdaptiveMs.Percentile(0.9), r.GeoMs.Percentile(0.9); a > g {
		t.Errorf("overall p90: adaptive %.1fms > geo %.1fms", a, g)
	}
	// The study must leave the shared reflector override-free.
	if n := len(e.RR.Policy().Overrides()); n != 0 {
		t.Errorf("%d overrides left behind on the reflector", n)
	}
	out := r.Render()
	if !strings.Contains(out, "adaptive") || !strings.Contains(out, "geo only") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestAdaptiveTracksEligibility(t *testing.T) {
	e := NewEnv(Config{Seed: 11, NumAS: 400})
	tracks := e.AdaptiveTracks()
	if len(tracks) == 0 {
		t.Fatal("no trackable prefixes")
	}
	seen := make(map[string]bool)
	for _, tr := range tracks {
		if seen[tr.Prefix.String()] {
			t.Fatalf("prefix %v tracked twice", tr.Prefix)
		}
		seen[tr.Prefix.String()] = true
		if len(tr.Cands) < 2 {
			t.Fatalf("track %v has %d candidates", tr.Prefix, len(tr.Cands))
		}
		found := false
		for _, c := range tr.Cands {
			if c.PoP == tr.GeoBest {
				found = true
			}
		}
		if !found {
			t.Fatalf("track %v: GeoBest %d not among candidates", tr.Prefix, tr.GeoBest)
		}
	}
	// A forced prefix must drop out of the trackable set.
	pfx := tracks[0].Prefix
	router := tracks[0].Cands[0].Router
	if err := e.RR.ForceExit(pfx, router); err != nil {
		t.Fatalf("ForceExit: %v", err)
	}
	if _, ok := e.AdaptiveTrack(pfx); ok {
		t.Error("forced prefix still trackable")
	}
	e.RR.Unforce(pfx)
}
