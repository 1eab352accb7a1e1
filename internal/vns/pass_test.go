package vns

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vns/internal/fib"
	"vns/internal/telemetry"
)

// TestPassMatchesReference is the resolve pass's differential oracle:
// it drives the seed-1 world through the decision states
// (driveDecisionStates) and reaches each one three ways — the universe
// in InvalidateBatch chunks small enough for the delta path, one
// InvalidateAll, and a debounced Forwarding's InvalidateAll plus Flush.
// After each, every engine must answer the first and last address of
// every universe prefix the way longest-prefix match over the reference
// decisions (refResolve) does.
func TestPassMatchesReference(t *testing.T) {
	pr, rr, batched := decisionWorld(t, 1, 120)
	ways := []struct {
		name  string
		f     *Forwarding
		reach func(f *Forwarding, universe []netip.Prefix)
	}{
		{"InvalidateBatch", batched, func(f *Forwarding, u []netip.Prefix) {
			for lo := 0; lo < len(u); lo += 37 {
				f.InvalidateBatch(u[lo:min(lo+37, len(u))])
			}
		}},
		{"InvalidateAll", NewForwarding(pr, rr, ForwardingConfig{}), func(f *Forwarding, _ []netip.Prefix) {
			f.InvalidateAll()
		}},
		{"debounced", NewForwarding(pr, rr, ForwardingConfig{Debounce: time.Hour}), func(f *Forwarding, _ []netip.Prefix) {
			f.InvalidateAll()
			f.Flush()
		}},
	}
	states := 0
	driveDecisionStates(t, pr, rr, func(state string) {
		t.Helper()
		states++
		u := refUniverse(pr, rr)
		want := make([]map[netip.Prefix]fib.NextHop, len(pr.Net.PoPs))
		for i, v := range pr.Net.PoPs {
			want[i] = make(map[netip.Prefix]fib.NextHop)
			for _, pfx := range u {
				if nh, ok := refResolve(batched, v, pfx); ok {
					want[i][pfx] = nh
				}
			}
		}
		for _, w := range ways {
			w.reach(w.f, u)
			bad := 0
			for i, eng := range w.f.Engines() {
				for _, pfx := range u {
					for _, addr := range []netip.Addr{pfx.Addr(), lastAddr(pfx)} {
						got, gotOK := eng.Lookup(addr)
						exp, expOK := longestMatch(want[i], addr)
						if got != exp || gotOK != expOK {
							bad++
							if bad <= 5 {
								t.Errorf("%s via %s: %s FIB(%v) = %v %v, reference %v %v",
									state, w.name, pr.Net.PoPs[i].Code, addr, got, gotOK, exp, expOK)
							}
						}
					}
				}
			}
			if bad > 0 {
				t.Errorf("%s via %s: %d lookups differ from the reference", state, w.name, bad)
			}
		}
	})
	if states < 10 {
		t.Fatalf("checked %d states, want at least 10", states)
	}
}

// longestMatch is longest-prefix match over a reference decision set.
func longestMatch(decided map[netip.Prefix]fib.NextHop, addr netip.Addr) (fib.NextHop, bool) {
	for bits := addr.BitLen(); bits >= 0; bits-- {
		q, _ := addr.Prefix(bits)
		if nh, ok := decided[q]; ok {
			return nh, true
		}
	}
	return fib.NextHop{}, false
}

// lastAddr returns the last IPv4 address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	a := p.Masked().Addr().As4()
	host := uint32(uint64(1)<<(32-p.Bits()) - 1)
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3]) | host
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// distinctRouters returns the number of distinct egress routers among
// the candidate sessions of an originated prefix.
func distinctRouters(pr *Peering, pfx netip.Prefix) int {
	pi, ok := pr.Topo.PrefixInfoFor(pfx)
	if !ok {
		return 0
	}
	routers := map[netip.Addr]bool{}
	for _, c := range pr.Candidates(pi.Origin) {
		routers[c.Session.Router] = true
	}
	return len(routers)
}

// TestPassBudgetTest is the direct evidence for the resolve pass (CI's
// "Resolve decision budget" step): a pass reads each router's
// preference for a prefix once, whatever the number of PoPs deciding
// over it. One InvalidateBatch of the widest seed-1 prefix calls
// GeoRR.Assign at most once per distinct candidate router across all
// eleven PoPs, and one InvalidateAll at most the sum of that over the
// universe. Outside -race, one InvalidateAll also makes at most
// passAllocBudget allocations: a pass allocates per batch, never per
// prefix or per PoP.
func TestPassBudgetTest(t *testing.T) {
	pr, rr, f := decisionWorld(t, 1, 120)
	pfx, _, routers := widestPrefix(pr)
	before, _ := rr.Stats()
	f.InvalidateBatch([]netip.Prefix{pfx})
	after, _ := rr.Stats()
	t.Logf("InvalidateBatch(%v): %d Assign calls, %d distinct routers", pfx, after-before, routers)
	if got := int(after - before); got > routers {
		t.Errorf("InvalidateBatch(%v) called Assign %d times, budget %d (one per router, not per PoP)", pfx, got, routers)
	}

	budget := 0
	for _, u := range refUniverse(pr, rr) {
		budget += distinctRouters(pr, u)
	}
	before, _ = rr.Stats()
	f.InvalidateAll()
	after, _ = rr.Stats()
	t.Logf("InvalidateAll: %d Assign calls, budget %d", after-before, budget)
	if got := int(after - before); got > budget {
		t.Errorf("InvalidateAll called Assign %d times, budget %d (one per prefix and router)", got, budget)
	}

	if raceEnabled {
		t.Log("race detector instruments the pass; allocation budget skipped")
		return
	}
	allocs := testing.AllocsPerRun(10, f.InvalidateAll)
	t.Logf("InvalidateAll: %.0f allocations, budget %d", allocs, passAllocBudget)
	if allocs > passAllocBudget {
		t.Errorf("InvalidateAll makes %.0f allocations, budget %d", allocs, passAllocBudget)
	}
}

// passAllocBudget is what one universe-wide pass that moves nothing may
// allocate: the universe list, the dirty set's map (four objects), the
// sorted batch, and the pass's facts, tier buffer and decisions.
const passAllocBudget = 9

// BenchmarkInvalidateAll measures one universe-wide resolve pass over
// the seed-1 world: the failover controller's reconvergence, minus the
// publishes, since nothing moved.
func BenchmarkInvalidateAll(b *testing.B) {
	_, rr, f := decisionWorld(b, 1, 120)
	before, _ := rr.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.InvalidateAll()
	}
	b.StopTimer()
	after, _ := rr.Stats()
	b.ReportMetric(float64(after-before)/float64(b.N), "assigns/op")
}

// forcedBurst force-exits up to n prefixes that have a candidate outside
// their current egress PoP at LON to such a candidate's router, and
// returns them with the PoP each was forced to.
func forcedBurst(t *testing.T, pr *Peering, f *Forwarding, n int) ([]netip.Prefix, []int) {
	t.Helper()
	lon := f.Engine("LON")
	var prefixes []netip.Prefix
	var pops []int
	for i := range pr.Topo.Prefixes {
		if len(prefixes) == n {
			break
		}
		pi := &pr.Topo.Prefixes[i]
		nh, ok := lon.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range pr.Candidates(pi.Origin) {
			if c.Session.PoP.ID != nh.PoP {
				if err := f.RR.ForceExit(pi.Prefix, c.Session.Router); err != nil {
					t.Fatal(err)
				}
				prefixes = append(prefixes, pi.Prefix)
				pops = append(pops, c.Session.PoP.ID)
				break
			}
		}
	}
	if len(prefixes) == 0 {
		t.Fatal("no multi-PoP prefix found")
	}
	return prefixes, pops
}

// generations returns every engine's published generation, in PoP-id
// order.
func generations(f *Forwarding) []uint64 {
	var out []uint64
	for _, e := range f.Engines() {
		out = append(out, e.Current().Generation())
	}
	return out
}

// TestForwardingDebounceBatchesBurst checks that a burst of
// invalidations under a debounce costs one pass: nothing is published
// before the forwarding plane's one timer fires, and then every PoP
// publishes exactly once.
func TestForwardingDebounceBatchesBurst(t *testing.T) {
	pr, _, f := forwardingSetup(t, ForwardingConfig{Debounce: 50 * time.Millisecond})
	before := generations(f)
	prefixes, pops := forcedBurst(t, pr, f, 30)
	if got := generations(f); !slices.Equal(got, before) {
		t.Fatalf("a pass ran before the debounce: generations %v -> %v", before, got)
	}
	if got := f.Pending(); got != len(prefixes) {
		t.Errorf("pending = %d, want the burst's %d prefixes", got, len(prefixes))
	}
	moved := func() bool {
		for i, g := range generations(f) {
			if g == before[i] {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !moved() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i, g := range generations(f) {
		if g != before[i]+1 {
			t.Errorf("%s: generation %d -> %d, want one batched publish", pr.Net.PoPs[i].Code, before[i], g)
		}
	}
	lon := f.Engine("LON")
	for i, pfx := range prefixes {
		if nh, ok := lon.Lookup(pfx.Addr()); !ok || nh.PoP != pops[i] {
			t.Errorf("%v: egress PoP %d, want forced %d", pfx, nh.PoP, pops[i])
		}
	}
	if got := f.Pending(); got != 0 {
		t.Errorf("pending = %d after the pass", got)
	}
}

// TestForwardingFlushForcesPending checks that Flush runs a debounced
// pass on demand: the burst waiting in the dirty set is published once at
// every PoP, and a Flush with nothing dirty publishes nothing.
func TestForwardingFlushForcesPending(t *testing.T) {
	pr, _, f := forwardingSetup(t, ForwardingConfig{Debounce: time.Hour})
	before := generations(f)
	prefixes, pops := forcedBurst(t, pr, f, 3)
	if got := f.Pending(); got != len(prefixes) {
		t.Fatalf("pending = %d, want %d", got, len(prefixes))
	}
	f.Flush()
	flushed := generations(f)
	for i, g := range flushed {
		if g != before[i]+1 {
			t.Errorf("%s: generation %d -> %d after Flush, want one publish", pr.Net.PoPs[i].Code, before[i], g)
		}
	}
	for _, e := range f.Engines() {
		for i, pfx := range prefixes {
			if nh, ok := e.Lookup(pfx.Addr()); !ok || nh.PoP != pops[i] {
				t.Errorf("pop%d: %v exits (%v, %v), want forced pop%d", e.PoP(), pfx, nh, ok, pops[i])
			}
		}
	}
	if got := f.Pending(); got != 0 {
		t.Errorf("pending = %d after Flush", got)
	}
	f.Flush()
	if got := generations(f); !slices.Equal(got, flushed) {
		t.Errorf("a Flush with nothing pending published: generations %v -> %v", flushed, got)
	}
}

// TestForwardingStaleEventNotAttributed pins the event attribution of a
// debounced pass: it reports its compiles to the latest event that
// invalidated since the last pass while that event is still open, and a
// pass that lands after its event finished is not attributed to it (it
// belongs to fib_compile_seconds alone).
func TestForwardingStaleEventNotAttributed(t *testing.T) {
	pr, rr, f := forwardingSetup(t, ForwardingConfig{
		Debounce:         time.Hour,
		Telemetry:        telemetry.New(),
		ConvergenceClock: func() float64 { return 0 },
	})
	conv := f.Convergence()
	base := conv.StageCount(telemetry.StageFIBCompile)
	ev := conv.Begin(telemetry.ConvUpdate)
	prefixes, _ := forcedBurst(t, pr, f, 1)
	f.Flush()
	ev.Finish()
	if got := conv.StageCount(telemetry.StageFIBCompile) - base; got != uint64(len(pr.Net.PoPs)) {
		t.Fatalf("attributed compiles = %d, want one per PoP (%d)", got, len(pr.Net.PoPs))
	}

	late := conv.Begin(telemetry.ConvChurn)
	rr.Unforce(prefixes[0])
	late.Finish()
	f.Flush() // the debounce elapses after the event closed
	if got := conv.StageCount(telemetry.StageFIBCompile) - base; got != uint64(len(pr.Net.PoPs)) {
		t.Errorf("attributed compiles after a stale pass = %d, want still %d", got, len(pr.Net.PoPs))
	}
}

// TestForwardingEventReachesCompileRecorder pins the event ID's rib→fib
// crossing: an invalidation inside an event stamps the next pass with
// that event's ID, and the pass records its publishes against it (one
// per PoP, in the stage family and in fib_compile_seconds); an
// invalidation outside any event leaves the next pass unstamped, so it
// inherits no earlier event; and a pass in which no next hop moved
// records nothing.
func TestForwardingEventReachesCompileRecorder(t *testing.T) {
	reg := telemetry.New()
	pr, _, f := forwardingSetup(t, ForwardingConfig{
		Debounce:         time.Hour,
		Telemetry:        reg,
		ConvergenceClock: func() float64 { return 0 },
	})
	conv := f.Convergence()
	hist := reg.Histogram("fib_compile_seconds", "", nil)
	pops := uint64(len(pr.Net.PoPs))
	base, published := conv.StageCount(telemetry.StageFIBCompile), hist.Count()
	stamp := func() uint64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.pendingEvent
	}
	check := func(step string, attributed, publishes uint64) {
		t.Helper()
		if got := conv.StageCount(telemetry.StageFIBCompile) - base; got != attributed {
			t.Errorf("%s: attributed compiles = %d, want %d", step, got, attributed)
		}
		if got := hist.Count() - published; got != publishes {
			t.Errorf("%s: fib_compile_seconds observations = %d, want %d", step, got, publishes)
		}
	}

	ev := conv.Begin(telemetry.ConvUpdate)
	prefixes, _ := forcedBurst(t, pr, f, 1)
	if got, want := stamp(), conv.ActiveID(); got != want || want == 0 {
		t.Fatalf("pass stamped with event %d, want the active event %d", got, want)
	}
	f.Flush()
	ev.Finish()
	check("an event's pass", pops, pops)

	forcedBurst(t, pr, f, 2) // no event in flight
	if got := stamp(); got != 0 {
		t.Errorf("an invalidation outside any event stamped the next pass with event %d, want 0", got)
	}
	f.Flush()
	check("an event-0 pass", pops, 2*pops)

	idle := conv.Begin(telemetry.ConvUpdate)
	f.InvalidateBatch(prefixes)
	f.Flush()
	idle.Finish()
	check("a pass in which nothing moved", pops, 2*pops)
}

// TestForwardingEventRoundTrip wires the deployment topology — a
// synchronous forwarding plane on a real Convergence that runs on wall
// seconds — and checks the span layer ends up with every PoP's compile
// attributed to the event that caused it, at the duration each publish
// took.
func TestForwardingEventRoundTrip(t *testing.T) {
	reg := telemetry.New()
	pr, _, f := forwardingSetup(t, ForwardingConfig{
		Telemetry:        reg,
		ConvergenceClock: func() float64 { return 0 },
	})
	conv := f.Convergence()
	base := conv.StageCount(telemetry.StageFIBCompile)
	ev := conv.Begin(telemetry.ConvUpdate)
	forcedBurst(t, pr, f, 1)
	ev.Finish()
	// The event has no other stage: its stage sum is its attributed compiles.
	stageSum := reg.HistogramVec("convergence_stage_seconds", "", nil, "stage").With(telemetry.StageFIBCompile).Sum()
	if got := conv.StageCount(telemetry.StageFIBCompile) - base; got != uint64(len(pr.Net.PoPs)) {
		t.Fatalf("attributed compiles = %d, want one per PoP (%d)", got, len(pr.Net.PoPs))
	}
	var want float64
	for _, e := range f.Engines() {
		want += e.Current().CompileDuration().Seconds()
	}
	if stageSum != want {
		t.Errorf("attributed stage sum = %v, want the publishes' %v", stageSum, want)
	}
}

// TestForwardingConcurrentInvalidate hammers the forwarding plane from
// four control-plane writers while a reader watches LON's published FIB,
// under both synchronous and debounced passes. The published generation
// never goes backwards, and after a final Flush no invalidated prefix is
// lost: every prefix exits where its writer's last force-exit sent it,
// at every PoP.
func TestForwardingConcurrentInvalidate(t *testing.T) {
	for _, debounce := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("debounce=%v", debounce), func(t *testing.T) {
			concurrentInvalidate(t, debounce)
		})
	}
}

func concurrentInvalidate(t *testing.T, debounce time.Duration) {
	const (
		nPrefixes = 64
		nWriters  = 4
		nRounds   = 25
	)
	pr, rr, f := forwardingSetup(t, ForwardingConfig{Debounce: debounce})
	// Each prefix alternates between two candidate routers at different
	// PoPs.
	type target struct {
		pfx netip.Prefix
		to  [2]Candidate
	}
	var targets []target
	for i := range pr.Topo.Prefixes {
		if len(targets) == nPrefixes {
			break
		}
		pi := &pr.Topo.Prefixes[i]
		cands := pr.Candidates(pi.Origin)
		for _, c := range cands {
			if c.Session.PoP != cands[0].Session.PoP {
				targets = append(targets, target{pi.Prefix, [2]Candidate{cands[0], c}})
				break
			}
		}
	}
	if len(targets) < nWriters {
		t.Fatalf("only %d multi-PoP prefixes", len(targets))
	}

	lon := f.Engine("LON")
	stop := make(chan struct{})
	var readerErr atomic.Value
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var lastGen uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gen := lon.Current().Generation()
			if gen < lastGen {
				readerErr.Store(fmt.Sprintf("generation went backwards: %d after %d", gen, lastGen))
				return
			}
			lastGen = gen
			lon.Lookup(targets[i%len(targets)].pfx.Addr())
		}
	}()

	// Each writer owns an interleaved subset of prefixes, so the last
	// force-exit of a prefix is its owner's last.
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; r < nRounds; r++ {
				for i := w; i < len(targets); i += nWriters {
					if err := rr.ForceExit(targets[i].pfx, targets[i].to[r%2].Session.Router); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatal(err)
	}

	f.Flush()
	for _, tg := range targets {
		last := tg.to[(nRounds-1)%2].Session.PoP.ID
		for _, e := range f.Engines() {
			if nh, ok := e.Lookup(tg.pfx.Addr()); !ok || nh.PoP != last {
				t.Fatalf("pop%d: %v exits (%v, %v), want forced pop%d — invalidated prefix lost", e.PoP(), tg.pfx, nh, ok, last)
			}
		}
	}
	if got := f.Pending(); got != 0 {
		t.Errorf("pending = %d after the final Flush", got)
	}
}

// TestResolveNotTorn: a decision reads the reflector's policy once, so
// Resolve beside a writer answers as some single policy state would,
// never as a mix of two. The writer cycles prefix p through four
// states: ForceExit(p, a), SetEgressDown(b), Unforce(p), and b restored.
// Every PoP's answer for p and for a few prefixes that exit at b is
// recorded under each state with nothing else running; then readers
// resolve the same prefixes while the writer cycles, and every answer
// must be one of the recorded ones. Without one policy per decision, a
// Resolve that read p's geo-best router as "forced elsewhere" and the
// rest after the Unforce picks p's runner-up, which no state does.
func TestResolveNotTorn(t *testing.T) {
	pr, rr, f := decisionWorld(t, 1, 120)
	lon := pr.Net.PoP("LON")
	p, _, _ := widestPrefix(pr)
	geoBest, ok := f.Resolve(lon, p)
	if !ok {
		t.Fatalf("%v has no route", p)
	}
	// a: p's candidate router with the least geo preference, so a force
	// to it moves p and the runner-up is not a.
	pi, _ := pr.Topo.PrefixInfoFor(p)
	var a netip.Addr
	worst := ^uint32(0)
	for _, c := range pr.Candidates(pi.Origin) {
		if lp := rr.Assign(c.Session.Router, p).LocalPref; c.Session.PoP.ID != geoBest.PoP && lp < worst {
			a, worst = c.Session.Router, lp
		}
	}
	// b: the LON egress router of the most other prefixes, neither p's
	// geo-best router nor a.
	exitsAt := map[netip.Addr][]netip.Prefix{}
	for i := range pr.Topo.Prefixes {
		q := pr.Topo.Prefixes[i].Prefix
		if nh, ok := f.Resolve(lon, q); ok && q != p && nh.Router != geoBest.Router && nh.Router != a {
			exitsAt[nh.Router] = append(exitsAt[nh.Router], q)
		}
	}
	var b netip.Addr
	for r, qs := range exitsAt {
		if len(qs) > len(exitsAt[b]) || len(qs) == len(exitsAt[b]) && r.Less(b) {
			b = r
		}
	}
	watched := append([]netip.Prefix{p}, exitsAt[b][:min(4, len(exitsAt[b]))]...)
	steps := []func(){
		func() {
			if err := rr.ForceExit(p, a); err != nil {
				t.Error(err)
			}
		},
		func() { rr.SetEgressDown(b, true) },
		func() { rr.Unforce(p) },
		func() { rr.SetEgressDown(b, false) },
	}

	type answer struct {
		nh fib.NextHop
		ok bool
	}
	type key struct {
		pop int
		pfx netip.Prefix
	}
	allowed := map[key]map[answer]bool{}
	record := func() {
		for _, v := range pr.Net.PoPs {
			for _, q := range watched {
				k := key{v.ID, q}
				if allowed[k] == nil {
					allowed[k] = map[answer]bool{}
				}
				nh, ok := f.Resolve(v, q)
				allowed[k][answer{nh, ok}] = true
			}
		}
	}
	record()
	for _, step := range steps {
		step()
		record()
	}
	if n := len(allowed[key{lon.ID, p}]); n < 2 {
		t.Fatalf("%v has %d answer(s) at LON over the cycle; the cycle moves nothing", p, n)
	}

	const readers, rounds = 2, 40
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, step := range steps {
				step()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var rw sync.WaitGroup
	for g := 0; g < readers; g++ {
		rw.Add(1)
		go func() {
			defer rw.Done()
			for r := 0; r < rounds; r++ {
				for _, v := range pr.Net.PoPs {
					for _, q := range watched {
						nh, ok := f.Resolve(v, q)
						if !allowed[key{v.ID, q}][answer{nh, ok}] && torn.Add(1) <= 3 {
							t.Errorf("%s: Resolve(%v) = %v %v, which no policy state in the cycle gives", v.Code, q, nh, ok)
						}
					}
				}
			}
		}()
	}
	rw.Wait()
	close(stop)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d torn decisions", n)
	}
}
