package vns

import (
	"net/netip"
	"testing"
)

// widestPrefix returns the prefix of the world with the most candidate
// sessions, and how many distinct egress routers carry them.
func widestPrefix(pr *Peering) (pfx netip.Prefix, sessions, routers int) {
	var widest []Candidate
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		if cands := pr.Candidates(pi.Origin); len(cands) > len(widest) {
			pfx, widest = pi.Prefix, cands
		}
	}
	return pfx, len(widest), distinctRouters(pr, pfx)
}

// BenchmarkResolve measures one PoP's decision for the seed-1 world's
// widest prefix, cycling the vantage through every PoP.
func BenchmarkResolve(b *testing.B) {
	pr, _, f := decisionWorld(b, 1, 120)
	pfx, _, _ := widestPrefix(pr)
	pops := pr.Net.PoPs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Resolve(pops[i%len(pops)], pfx)
	}
}

// TestBudgetTest enforces the decision's per-call budget in CI
// (`go test -run BudgetTest ./internal/vns`): for the seed-1 world's
// widest prefix, Resolve at every PoP makes at most one allocation and
// calls GeoRR.Assign at most once per distinct candidate router. Skips
// under -race and -short, where allocation counts reflect
// instrumentation, not design.
func TestBudgetTest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments the hot path; budget not meaningful")
	}
	if testing.Short() {
		t.Skip("skipping budget measurement in -short mode")
	}

	pr, rr, f := decisionWorld(t, 1, 120)
	pfx, sessions, routers := widestPrefix(pr)
	t.Logf("%v: %d candidate sessions on %d routers", pfx, sessions, routers)
	for _, v := range pr.Net.PoPs {
		before, _ := rr.Stats()
		if _, ok := f.Resolve(v, pfx); !ok {
			t.Fatalf("%s: %v has no route", v.Code, pfx)
		}
		after, _ := rr.Stats()
		if assigns := int(after - before); assigns > routers {
			t.Errorf("%s: Resolve(%v) called Assign %d times, budget %d (one per router)", v.Code, pfx, assigns, routers)
		}
		allocs := testing.AllocsPerRun(100, func() { f.Resolve(v, pfx) })
		if allocs > 1 {
			t.Errorf("%s: Resolve(%v) makes %.0f allocations, budget 1", v.Code, pfx, allocs)
		}
	}
}
