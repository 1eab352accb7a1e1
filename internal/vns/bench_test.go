package vns

import (
	"net/netip"
	"runtime"
	"testing"

	"vns/internal/core"
	"vns/internal/loss"
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

// override is one management override: pin pfx to router to.
type override struct {
	pfx netip.Prefix
	to  netip.Addr
}

// overridePicks draws up to 64 seeded overrides on f's world, each a
// prefix and a candidate router other than its current egress at LON.
func overridePicks(tb testing.TB, pr *Peering, f *Forwarding) []override {
	lon := f.Engine("LON")
	rng := loss.NewRNG(0x0E1)
	var picks []override
	for try := 0; len(picks) < 64 && try < 64*len(pr.Topo.Prefixes); try++ {
		pi := &pr.Topo.Prefixes[int(rng.Float64()*float64(len(pr.Topo.Prefixes)))]
		cur, ok := lon.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range pr.Candidates(pi.Origin) {
			if c.Session.Router != cur.Router {
				picks = append(picks, override{pi.Prefix, c.Session.Router})
				break
			}
		}
	}
	if len(picks) == 0 {
		tb.Fatal("no prefix with a second egress router")
	}
	return picks
}

// forceAndUnforce applies one override and its undo.
func forceAndUnforce(tb testing.TB, rr *core.GeoRR, o override) {
	if err := rr.ForceExit(o.pfx, o.to); err != nil {
		tb.Fatal(err)
	}
	rr.Unforce(o.pfx)
}

// BenchmarkOverride measures one management override and its undo on
// the seed-1 world: ForceExit of a seeded prefix to a router other than
// its current egress, then Unforce, each through the GeoRR, the
// forwarding plane's resolve pass and one plane publish, a delta of
// the shared trie that moves every PoP. One op is the pair;
// publishes/op counts the delta publishes it cost across the PoPs.
func BenchmarkOverride(b *testing.B) {
	pr, rr, f := decisionWorld(b, 1, 120)
	picks := overridePicks(b, pr, f)
	deltas := func() (n uint64) {
		for _, e := range f.Engines() {
			n += e.Publisher().Stats().DeltaCompiles
		}
		return n
	}
	before := deltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forceAndUnforce(b, rr, picks[i%len(picks)])
	}
	b.StopTimer()
	b.ReportMetric(float64(deltas()-before)/float64(b.N), "publishes/op")
}

// overrideBudget is the most one ForceExit and its Unforce may
// allocate on the seed-1 world, in bytes: per publish, the three trie
// nodes on a /20's path (3.4 KB each), one FIB header per PoP, and the
// pass and the GeoRR's own.
const overrideBudget = 32 << 10

// TestOverrideBudgetTest enforces the override path's allocation budget
// in CI (`go test -run BudgetTest ./internal/vns`): on the seed-1 world,
// after one round over the seeded overrides, one ForceExit and its
// Unforce allocate at most overrideBudget bytes on average, where
// copying the trie path once per PoP took 234 KB. Skips under -race and
// -short, where allocation counts reflect instrumentation, not design.
func TestOverrideBudgetTest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments the override path; budget not meaningful")
	}
	if testing.Short() {
		t.Skip("skipping budget measurement in -short mode")
	}
	pr, rr, f := decisionWorld(t, 1, 120)
	picks := overridePicks(t, pr, f)
	for _, o := range picks {
		forceAndUnforce(t, rr, o) // every vector an override makes is interned
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, o := range picks {
			forceAndUnforce(t, rr, o)
		}
	}
	runtime.ReadMemStats(&after)
	perPair := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(picks))
	t.Logf("ForceExit+Unforce: %d B allocated per pair over %d pairs", perPair, rounds*len(picks))
	if perPair > overrideBudget {
		t.Errorf("ForceExit+Unforce allocates %d B per pair, budget %d", perPair, overrideBudget)
	}
}
