package fib

import (
	"maps"
	"net/netip"
	"testing"

	"vns/internal/detsort"
	"vns/internal/loss"
)

// modelPatches diffs a prefix→next-hop model across a mutation batch
// into the sorted Patch list the Publisher would emit: one patch per
// prefix whose resolution changed, withdrawals carrying the cover
// computed against the post-batch model. before is the pre-batch state,
// after the post-batch state, touched the set of prefixes the batch
// named (canonical/masked).
func modelPatches(before, after map[netip.Prefix]NextHop, touched map[netip.Prefix]struct{}) []Patch {
	patches := make([]Patch, 0, len(touched))
	for _, pfx := range detsort.KeysFunc(touched, detsort.PrefixCompare) {
		nh, now := after[pfx]
		old, was := before[pfx]
		switch {
		case now && (!was || old != nh):
			patches = append(patches, Patch{Prefix: pfx, Install: true, NextHop: nh, Existed: was})
		case !now && was:
			p := Patch{Prefix: pfx, Existed: true}
			p.Cover, p.CoverBits = coverOf(after, pfx)
			patches = append(patches, p)
		}
	}
	return patches
}

func entriesOf(m map[netip.Prefix]NextHop) []Entry {
	entries := make([]Entry, 0, len(m))
	for _, p := range detsort.KeysFunc(m, detsort.PrefixCompare) {
		entries = append(entries, Entry{Prefix: p, NextHop: m[p]})
	}
	return entries
}

// lastAddrOf returns the highest address inside an IPv4 prefix — the
// far corner of its span, where off-by-one patch bugs live.
func lastAddrOf(p netip.Prefix) netip.Addr {
	a := p.Addr().As4()
	bits := p.Bits()
	for i := 0; i < 4; i++ {
		keep := bits - i*8
		switch {
		case keep <= 0:
			a[i] = 0xFF
		case keep < 8:
			a[i] |= 0xFF >> keep
		}
	}
	return netip.AddrFrom4(a)
}

// checkDeltaEquiv asserts the delta-patched trie is lookup-equivalent
// to a from-scratch compile of the same model: exhaustive probes at
// every model prefix's first and last address plus sampled random
// addresses, and exact Size().
func checkDeltaEquiv(t *testing.T, got *FIB, model map[netip.Prefix]NextHop, rng *loss.RNG, tag string) {
	t.Helper()
	ref := NewLinear(entriesOf(model))
	if got.Size() != len(model) {
		t.Fatalf("%s: Size() = %d, want %d", tag, got.Size(), len(model))
	}
	probe := func(addr netip.Addr) {
		gotNH, gotOK := got.Lookup(addr)
		wantNH, wantOK := ref.Lookup(addr)
		if gotOK != wantOK || gotNH != wantNH {
			t.Fatalf("%s: Lookup(%v): delta=%v,%v linear=%v,%v", tag, addr, gotNH, gotOK, wantNH, wantOK)
		}
	}
	for p := range model {
		probe(p.Addr())
		probe(lastAddrOf(p))
	}
	for i := 0; i < 64; i++ {
		probe(randomAddr(rng))
	}
}

// TestDeltaTransitions covers each single-patch transition shape against
// a hand-built table.
func TestDeltaTransitions(t *testing.T) {
	base := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):     nh(1),
		mustPrefix("10.1.0.0/16"):    nh(2),
		mustPrefix("10.1.2.0/24"):    nh(3),
		mustPrefix("10.1.2.3/32"):    nh(4),
		mustPrefix("192.168.0.0/20"): nh(5),
	}
	cases := []struct {
		name   string
		mutate func(m map[netip.Prefix]NextHop) netip.Prefix
	}{
		{"announce-new-disjoint", func(m map[netip.Prefix]NextHop) netip.Prefix {
			p := mustPrefix("172.16.0.0/12")
			m[p] = nh(6)
			return p
		}},
		{"announce-new-covered", func(m map[netip.Prefix]NextHop) netip.Prefix {
			p := mustPrefix("10.1.128.0/17")
			m[p] = nh(7)
			return p
		}},
		{"announce-new-covering", func(m map[netip.Prefix]NextHop) netip.Prefix {
			// Shorter than everything installed under it: the existing
			// more-specifics must keep winning inside their spans.
			p := mustPrefix("10.0.0.0/7")
			m[p] = nh(8)
			return p
		}},
		{"change-nexthop", func(m map[netip.Prefix]NextHop) netip.Prefix {
			p := mustPrefix("10.1.0.0/16")
			m[p] = nh(9)
			return p
		}},
		{"withdraw-with-cover", func(m map[netip.Prefix]NextHop) netip.Prefix {
			p := mustPrefix("10.1.2.0/24")
			delete(m, p)
			return p
		}},
		{"withdraw-no-cover", func(m map[netip.Prefix]NextHop) netip.Prefix {
			p := mustPrefix("192.168.0.0/20")
			delete(m, p)
			return p
		}},
		{"withdraw-under-more-specifics", func(m map[netip.Prefix]NextHop) netip.Prefix {
			// The /16 goes away; the /24 and /32 under it must survive,
			// and the rest of its span falls back to the /8.
			p := mustPrefix("10.1.0.0/16")
			delete(m, p)
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := make(map[netip.Prefix]NextHop, len(base))
			for p, h := range base {
				before[p] = h
			}
			cur := Compile(entriesOf(before), 1)

			after := make(map[netip.Prefix]NextHop, len(before))
			for p, h := range before {
				after[p] = h
			}
			touched := map[netip.Prefix]struct{}{tc.mutate(after): {}}
			patches := modelPatches(before, after, touched)
			if len(patches) != 1 {
				t.Fatalf("patches = %d, want 1", len(patches))
			}
			got := cur.Delta(patches, 2)
			if got.Generation() != 2 {
				t.Errorf("generation = %d, want 2", got.Generation())
			}
			if got.Deltas() != 1 {
				t.Errorf("Deltas() = %d, want 1", got.Deltas())
			}
			checkDeltaEquiv(t, got, after, loss.NewRNG(0xD17A), tc.name)

			// The receiver must be untouched: still equivalent to its own
			// entry set (copy-on-write, not in-place mutation).
			checkDeltaEquiv(t, cur, before, loss.NewRNG(0xD17B), tc.name+"/receiver")
		})
	}
}

// TestDeltaBatch applies multi-prefix batches — including the
// announce+withdraw-in-one-batch coalescing shape — in one Delta call.
func TestDeltaBatch(t *testing.T) {
	before := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):  nh(1),
		mustPrefix("10.1.0.0/16"): nh(2),
		mustPrefix("20.0.0.0/8"):  nh(3),
	}
	cur := Compile(entriesOf(before), 1)

	after := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):  nh(1),
		mustPrefix("10.2.0.0/16"): nh(4), // announced
		mustPrefix("20.0.0.0/8"):  nh(5), // changed
		mustPrefix("30.0.0.0/8"):  nh(6), // announced, disjoint
		// 10.1.0.0/16 withdrawn
	}
	touched := map[netip.Prefix]struct{}{
		mustPrefix("10.1.0.0/16"): {},
		mustPrefix("10.2.0.0/16"): {},
		mustPrefix("20.0.0.0/8"):  {},
		mustPrefix("30.0.0.0/8"):  {},
	}
	got := cur.Delta(modelPatches(before, after, touched), 2)
	checkDeltaEquiv(t, got, after, loss.NewRNG(0xBA7C), "batch")
}

// TestDeltaRandomizedSequence runs long randomized churn sequences,
// re-checking delta-vs-compile equivalence after every batch — the
// deterministic always-on sibling of FuzzDeltaCompile.
func TestDeltaRandomizedSequence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := loss.NewRNG(seed)
		model := make(map[netip.Prefix]NextHop)
		for _, e := range randomEntries(rng, 400) {
			model[e.Prefix.Masked()] = e.NextHop
		}
		cur := Compile(entriesOf(model), 1)
		gen, fresh := uint64(1), 0
		for batch := 0; batch < 40; batch++ {
			before := make(map[netip.Prefix]NextHop, len(model))
			for p, h := range model {
				before[p] = h
			}
			touched := mutateModel(rng, model, 1+int(rng.Float64()*6), &fresh)
			patches := modelPatches(before, model, touched)
			gen++
			cur = cur.Delta(patches, gen)
			checkDeltaEquiv(t, cur, model, rng, "seed")
		}
		if cur.Deltas() != 40 {
			t.Errorf("Deltas() = %d, want 40", cur.Deltas())
		}
	}
}

// mutateModel applies n random announce/withdraw/change ops to the
// model in place and returns the touched prefix set. About half the
// installs take one of the eleven next hops randomEntries deals out,
// which a table built from it already holds; the rest bring a next hop
// no table has seen (a neighbor index above 100, counted up in *fresh),
// so a Delta both shares its parent's next-hop table and copies it.
func mutateModel(rng *loss.RNG, model map[netip.Prefix]NextHop, n int, fresh *int) map[netip.Prefix]struct{} {
	touched := make(map[netip.Prefix]struct{}, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 && len(model) > 0 {
			k := int(rng.Float64() * float64(len(model)))
			for p := range model {
				if k == 0 {
					delete(model, p)
					touched[p] = struct{}{}
					break
				}
				k--
			}
			continue
		}
		e := randomEntries(rng, 1)
		if len(e) == 0 {
			continue
		}
		p := e[0].Prefix.Masked()
		h := nh(1 + int(rng.Float64()*11))
		if rng.Float64() < 0.5 {
			*fresh++
			h.Neighbor = 100 + *fresh
		}
		model[p] = h
		touched[p] = struct{}{}
	}
	return touched
}

// TestDeltaSiblingsIndependent takes two Deltas off one parent, each
// interning a next hop the parent's table lacks, and a third off the
// first under the first's own generation. Every table must keep its
// own answers: the siblings must not append into one shared next-hop
// array, and a reused generation must not let a session write in place
// into a published generation's nodes.
func TestDeltaSiblingsIndependent(t *testing.T) {
	base := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):  nh(1),
		mustPrefix("10.1.0.0/16"): nh(2),
		mustPrefix("20.0.0.0/8"):  nh(3),
	}
	parent := Compile(entriesOf(base), 1)
	if cap(parent.nexthops) == len(parent.nexthops) {
		t.Fatal("the parent's next-hop table has no spare capacity, so a shared append could not show")
	}
	pa, pb, pc := mustPrefix("10.1.2.0/24"), mustPrefix("20.1.0.0/16"), mustPrefix("10.1.3.0/24")
	fresh := func(n int) NextHop { h := nh(4); h.Neighbor = 100 + n; return h }
	with := func(m map[netip.Prefix]NextHop, pfx netip.Prefix, h NextHop) map[netip.Prefix]NextHop {
		out := maps.Clone(m)
		out[pfx] = h
		return out
	}
	install := func(f *FIB, pfx netip.Prefix, h NextHop) *FIB {
		return f.Delta([]Patch{{Prefix: pfx, Install: true, NextHop: h}}, 2)
	}
	a, b := install(parent, pa, fresh(1)), install(parent, pb, fresh(2))
	c := install(a, pc, fresh(3))
	modelA := with(base, pa, fresh(1))

	rng := loss.NewRNG(0x51B)
	for _, g := range []struct {
		name  string
		f     *FIB
		model map[netip.Prefix]NextHop
	}{
		{"parent", parent, base},
		{"first sibling", a, modelA},
		{"second sibling", b, with(base, pb, fresh(2))},
		{"child under a reused generation", c, with(modelA, pc, fresh(3))},
	} {
		checkDeltaEquiv(t, g.f, g.model, rng, g.name)
		// Probe each table where the others were patched too.
		ref := NewLinear(entriesOf(g.model))
		for _, pfx := range []netip.Prefix{pa, pb, pc} {
			want, _ := ref.Lookup(pfx.Addr())
			if got, _ := g.f.Lookup(pfx.Addr()); got != want {
				t.Errorf("%s: Lookup(%v) = %v, want %v: another Delta wrote into this table", g.name, pfx.Addr(), got, want)
			}
		}
	}
}

// TestPublisherDeltaPath drives the Publisher through its delta-eligible
// publish path and checks the stats split between delta and full publishes.
func TestPublisherDeltaPath(t *testing.T) {
	routes := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):  nh(1),
		mustPrefix("10.1.0.0/16"): nh(2),
	}
	e := NewEngine(1, nil)
	p := e.Publisher()
	p.Publish(decided(routes, mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16")))

	// Single-prefix churn: must go through the delta path.
	routes[mustPrefix("10.1.0.0/16")] = nh(3)
	p.Publish(decided(routes, mustPrefix("10.1.0.0/16")))
	s := p.Stats()
	if s.DeltaCompiles != 1 {
		t.Fatalf("DeltaCompiles = %d, want 1 (single-prefix churn must patch)", s.DeltaCompiles)
	}
	if s.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (only the initial publish)", s.Compiles)
	}
	if got, _ := e.Lookup(netip.MustParseAddr("10.1.2.3")); got.PoP != 3 {
		t.Errorf("after delta publish: got pop%d, want 3", got.PoP)
	}
	if gen := e.Current().Generation(); gen != 2 {
		t.Errorf("generation = %d, want 2", gen)
	}

	// A withdrawal via delta: span falls back to the /8.
	delete(routes, mustPrefix("10.1.0.0/16"))
	p.Publish(decided(routes, mustPrefix("10.1.0.0/16")))
	if got, _ := e.Lookup(netip.MustParseAddr("10.1.2.3")); got.PoP != 1 {
		t.Errorf("after delta withdraw: got pop%d, want 1 (cover)", got.PoP)
	}
	if s := p.Stats(); s.DeltaCompiles != 2 || s.Prefixes != 1 {
		t.Errorf("after withdraw: DeltaCompiles=%d Prefixes=%d, want 2, 1", s.DeltaCompiles, s.Prefixes)
	}
}

// TestPublisherDeltaMatchesCompile holds a delta publish to its
// reference: the same entries compiled from scratch must answer every
// probe the same way.
func TestPublisherDeltaMatchesCompile(t *testing.T) {
	routes := map[netip.Prefix]NextHop{mustPrefix("10.0.0.0/8"): nh(1)}
	e := NewEngine(1, nil)
	p := e.Publisher()
	p.Publish(decided(routes, mustPrefix("10.0.0.0/8")))
	routes[mustPrefix("10.0.0.0/8")] = nh(2)
	routes[mustPrefix("10.1.0.0/16")] = nh(3)
	p.Publish(decided(routes, mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16")))
	if s := p.Stats(); s.DeltaCompiles != 1 || s.Compiles != 1 {
		t.Fatalf("DeltaCompiles=%d Compiles=%d, want 1, 1", s.DeltaCompiles, s.Compiles)
	}
	got, ref := e.Current(), Compile(entriesOf(routes), 0)
	for _, a := range []string{"10.0.0.1", "10.1.2.3", "10.255.255.255", "11.0.0.0"} {
		addr := netip.MustParseAddr(a)
		gotNH, gotOK := got.Lookup(addr)
		wantNH, wantOK := ref.Lookup(addr)
		if gotNH != wantNH || gotOK != wantOK {
			t.Errorf("Lookup(%v): delta=%v,%v compile=%v,%v", addr, gotNH, gotOK, wantNH, wantOK)
		}
	}
}

// TestPublisherDeltaThresholdRoutesLargeBatch pins the eligibility cut:
// a batch over the threshold recompiles (and resets the delta counter).
func TestPublisherDeltaThresholdRoutesLargeBatch(t *testing.T) {
	first := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 16)
	routes := map[netip.Prefix]NextHop{first: nh(1)}
	e := NewEngine(1, nil)
	p := e.Publisher()
	p.Publish(decided(routes, first))
	routes[first] = nh(2)
	p.Publish(decided(routes, first))
	if d := e.Current().Deltas(); d != 1 {
		t.Fatalf("Deltas() = %d after one small change, want 1", d)
	}
	// One batch of deltaThreshold+1 changed prefixes: full compile.
	var batch []netip.Prefix
	for i := 0; i <= deltaThreshold; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		routes[pfx] = nh(3 + i%9)
		batch = append(batch, pfx)
	}
	p.Publish(decided(routes, batch...))
	if s := p.Stats(); s.Compiles != 2 || s.DeltaCompiles != 1 {
		t.Fatalf("large batch: Compiles=%d DeltaCompiles=%d, want 2, 1", s.Compiles, s.DeltaCompiles)
	}
	if e.Current().Deltas() != 0 {
		t.Errorf("Deltas() = %d, want 0 after full compile", e.Current().Deltas())
	}
	// One more single-prefix change: back on the delta path.
	routes[first] = nh(1)
	p.Publish(decided(routes, first))
	if s := p.Stats(); s.DeltaCompiles != 2 {
		t.Errorf("small follow-up: DeltaCompiles = %d, want 2", s.DeltaCompiles)
	}
}

// FuzzDeltaCompile is the delta compiler's differential oracle: from a
// seeded random table, a randomized announce/withdraw/change sequence is
// applied both as copy-on-write Delta patches (chained, never
// recompiled) and to a model map; after every batch the patched trie
// must be lookup-equivalent to a from-scratch reference over the
// model — probed exhaustively at every prefix's first and last address
// plus random samples — with Size() exact. The generation it was
// patched from must still match the model it was built from: a batch
// mixes next hops the shared table holds with new ones (mutateModel),
// and neither may reach the parent's table or nodes.
func FuzzDeltaCompile(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(32))
	f.Add(uint64(42), uint16(512), uint16(16))
	f.Add(uint64(0xDEADBEEF), uint16(3), uint16(100))
	f.Add(uint64(7), uint16(0), uint16(40))
	f.Add(uint64(0xC0FFEE), uint16(2048), uint16(8))

	f.Fuzz(func(t *testing.T, seed uint64, numPrefixes, numBatches uint16) {
		if numPrefixes > 4096 {
			numPrefixes = 4096
		}
		if numBatches > 256 {
			numBatches = 256
		}
		rng := loss.NewRNG(seed)
		model := make(map[netip.Prefix]NextHop)
		for _, e := range randomEntries(rng, int(numPrefixes)) {
			model[e.Prefix.Masked()] = e.NextHop
		}
		cur := Compile(entriesOf(model), 1)
		gen, fresh := uint64(1), 0
		for batch := 0; batch < int(numBatches); batch++ {
			before := make(map[netip.Prefix]NextHop, len(model))
			for p, h := range model {
				before[p] = h
			}
			touched := mutateModel(rng, model, 1+int(rng.Float64()*8), &fresh)
			gen++
			prev := cur
			cur = cur.Delta(modelPatches(before, model, touched), gen)
			if cur.Generation() != gen {
				t.Fatalf("batch %d: generation = %d, want %d", batch, cur.Generation(), gen)
			}
			checkDeltaEquiv(t, cur, model, rng, "fuzz")
			checkDeltaEquiv(t, prev, before, rng, "fuzz/parent")
		}
	})
}

// TestDeltaBudgetTest is the delta patch's allocation budget in CI
// (`go test -run BudgetTest ./internal/fib`). On a table shaped like
// the seed-1 world's (358 consecutive /20s over 95 next hops), a
// single-prefix /20 install whose next hop the table already holds
// allocates the three path nodes it clones and the FIB header: nothing
// that grows with the table. A Publish of that change allocates no
// more than the Delta it makes. Skips under -race and -short, where
// allocation counts reflect instrumentation, not design.
func TestDeltaBudgetTest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments the patch path; budget not meaningful")
	}
	if testing.Short() {
		t.Skip("skipping budget measurement in -short mode")
	}
	const budget = 4 // root, depth-1 and depth-2 clones, plus the FIB
	routes := make(map[netip.Prefix]NextHop, 358)
	for i := 0; i < 358; i++ {
		a := uint32(1)<<24 | uint32(i)<<12
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), 0}), 20)
		h := nh(1 + i%95%11)
		h.Neighbor = i % 95
		routes[pfx] = h
	}
	universe := entriesOf(routes)
	pfx := universe[0].Prefix
	hops := [2]NextHop{universe[1].NextHop, universe[0].NextHop}

	cur := Compile(universe, 1)
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		k++
		cur.Delta([]Patch{{Prefix: pfx, Install: true, NextHop: hops[k%2], Existed: true}}, uint64(k+1))
	})
	t.Logf("Delta: %.0f allocations per single-prefix install over %d next hops", allocs, len(cur.nexthops))
	if allocs > budget {
		t.Errorf("Delta of one /20 makes %.0f allocations, budget %d", allocs, budget)
	}

	p := NewEngine(1, nil).Publisher()
	p.Publish(universe)
	allocs = testing.AllocsPerRun(100, func() {
		k++
		if p.Publish([]Entry{{Prefix: pfx, NextHop: hops[k%2]}}) == nil {
			t.Fatal("a moved next hop published nothing")
		}
	})
	t.Logf("Publish: %.0f allocations per single-prefix change", allocs)
	if allocs > budget {
		t.Errorf("Publish of one /20 makes %.0f allocations, budget %d", allocs, budget)
	}
	if s := p.Stats(); s.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1: every measured publish must take the delta path", s.Compiles)
	}
}
