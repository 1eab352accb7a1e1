package main

import (
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"vns/internal/bgp"
	"vns/internal/fib"
)

// A workload applies one kind of routing event to the loaded deployment
// for the given time and samples two things: the latency of each event
// (event_ms_p10) and the rate of work completed in equal-op-count
// windows (ops_per_s, the fastest window).
type workload struct {
	name string
	// eventUnit and opUnit say what one event and one op are here.
	eventUnit, opUnit string
	run               func(d *deployment, rng *rand.Rand, dur time.Duration, tr *tracer) result
	// explain estimates the seconds one op costs from the per-layer
	// probes, for trace.explained_frac.
	explain func(p probeResult) float64
}

var workloads = []workload{
	{"churn", "UPDATE", "UPDATE", runChurn, func(p probeResult) float64 {
		return (p.unmarshalNs + p.processUpdateNs + p.ribApplyNs + p.fanoutNs + p.marshalNs*p.reflections) / 1e9
	}},
	{"session-flap", "flap cycle", "route", runFlap, func(p probeResult) float64 {
		return (p.unmarshalPackedNs + p.processUpdateNs + p.ribApplyBulkNs + p.fanoutNs + p.marshalNs*p.reflections) / 1e9
	}},
	{"failover", "link transition", "override", runFailover, func(p probeResult) float64 {
		return (p.forceExitNs + p.lookupNs*p.pops) / 1e9
	}},
	{"dataplane", "override", "lookup", runDataplane, func(p probeResult) float64 {
		return p.lookupNs / 1e9
	}},
}

// result is what one pass of a workload measured.
type result struct {
	eventMs []float64 // one latency sample per event
	rates   []float64 // one ops/s sample per window
	lateMs  []float64 // open-loop generator lateness, where there is one

	attempted, failed int

	// Counts across the event phase, for the per-layer ratios.
	events int
	during counters
	// What the first event did: FIB entries whose next hop moved, and
	// the assignments computed to move them.
	firstMoved   int
	firstAssigns uint64
}

// pairMean turns an operation and the one that undoes it (withdraw and
// announce, link down and up, force and unforce) into one latency
// sample, their mean. The two halves cost different amounts, and the
// median of a two-humped sample would sit wherever the gap is.
type pairMean struct {
	sum float64
	n   int
	bad bool
}

func (p *pairMean) add(ms float64, ok bool, r *result) {
	p.sum += ms
	p.bad = p.bad || !ok
	if p.n++; p.n == 2 && !p.bad {
		r.eventMs = append(r.eventMs, p.sum/2)
	}
}

func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// firstEvent measures what the first event of a traced pass moved, by
// FIB snapshot difference. It is taken outside the event's timing.
type firstEvent struct {
	d       *deployment
	before  []fib.NextHop
	assigns uint64
}

// watchFirst starts the measurement; only traced passes pay for it.
func (d *deployment) watchFirst(tr *tracer) *firstEvent {
	if tr == nil {
		return nil
	}
	return d.newFirstEvent()
}

func (d *deployment) newFirstEvent() *firstEvent {
	f := &firstEvent{d: d, before: d.snapshot()}
	f.assigns, _ = d.env.RR.Stats()
	return f
}

func (f *firstEvent) done(r *result) *firstEvent {
	if f == nil {
		return nil
	}
	now, _ := f.d.env.RR.Stats()
	r.firstAssigns = now - f.assigns
	r.firstMoved = moved(f.before, f.d.snapshot())
	return nil
}

// timed runs one event between two clock reads and a span.
func timed(tr *tracer, name string, op uint64, fn func(parent int) (end time.Time, ok bool)) (ms float64, ok bool) {
	sp := tr.begin(name, 0, op)
	start := time.Now()
	end, ok := fn(sp)
	tr.end(sp, 1)
	return float64(end.Sub(start).Nanoseconds()) / 1e6, ok
}

// converge sends u on p and returns when match is seen on the observer.
func (d *deployment) converge(p *peer, u bgp.Update, match func(bgp.Update) bool, tr *tracer, parent int, op uint64) (time.Time, bool) {
	obs := d.observer(p.router).watch
	obs.arm(match)
	sp := tr.begin("bgp.send", parent, op)
	err := p.sess.SendUpdate(u)
	tr.end(sp, 1)
	if err != nil {
		return time.Now(), false
	}
	return obs.wait()
}

const (
	churnEventShare = 0.45 // of the run: closed-loop phase A
	churnWindow     = 250  // UPDATEs per pipelined window, phase B
)

// churnOps is phase A's operation order: for each visit of a prefix a
// withdrawal, then the announcement that restores it. Same seed, same
// stream.
func churnOps(rng *rand.Rand, mine []int) []int {
	order := append([]int(nil), mine...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// runChurn is steady-state single-prefix UPDATE churn from the router
// that holds the most best paths, on prefixes where it is best: every
// UPDATE moves the best path, so every UPDATE is reflected.
//
// Phase A, closed loop with one UPDATE outstanding: withdraw a prefix,
// wait until the withdrawal is reflected on another session, announce
// it again, wait for that. Each UPDATE is one event.
// Phase B, pipelined: windows of churnWindow re-announcements whose
// MED changes each time, ended by a sentinel barrier.
func runChurn(d *deployment, rng *rand.Rand, dur time.Duration, tr *tracer) result {
	var res result
	driver, mine := d.busiest()
	p := d.peers[driver]
	order := churnOps(rng, mine)
	before := d.best(order)

	runtime.GC()
	first := d.watchFirst(tr)
	c0 := d.counters()
	deadline := time.Now().Add(time.Duration(float64(dur) * churnEventShare))
	var op uint64
	for k := 0; time.Now().Before(deadline); k++ {
		if k%50 == 0 {
			runtime.GC()
		}
		i := order[k%len(order)]
		pfx := d.prefixes[i]
		steps := [2]struct {
			u     bgp.Update
			match func(bgp.Update) bool
		}{
			{bgp.Update{Withdrawn: []netip.Prefix{pfx}}, withdraws(pfx)},
			{d.announcement(driver, i), announces(pfx)},
		}
		var pair pairMean
		for _, s := range steps {
			op++
			ms, ok := timed(tr, "wire.converge", op, func(sp int) (time.Time, bool) {
				return d.converge(p, s.u, s.match, tr, sp, op)
			})
			res.op(ok)
			pair.add(ms, ok, &res)
			first = first.done(&res)
		}
	}
	res.during = d.counters().sub(c0)
	res.events = int(op)

	runtime.GC()
	deadline = time.Now().Add(time.Duration(float64(dur) * (1 - churnEventShare)))
	med := uint32(0)
	var windowSec []float64
	for k := 0; time.Now().Before(deadline); {
		runtime.GC()
		sp := tr.begin("wire.window", 0, 0)
		start := time.Now()
		ok := true
		for j := 0; j < churnWindow; j++ {
			u := d.announcement(driver, order[k%len(order)])
			k++
			med++
			u.Attrs.MED, u.Attrs.HasMED = med, true
			ok = p.sess.SendUpdate(u) == nil && ok
		}
		end, err := d.barrier(p)
		tr.end(sp, churnWindow)
		ok = ok && err == nil
		res.attempted += churnWindow
		if !ok {
			res.failed += churnWindow
			continue
		}
		windowSec = append(windowSec, end.Sub(start).Seconds())
	}
	res.rates = windowRates(churnWindow, windowSec)

	// Put every prefix back on its table attributes and compare.
	for _, i := range order {
		res.op(p.sess.SendUpdate(d.announcement(driver, i)) == nil)
	}
	_, err := d.barrier(p)
	res.op(err == nil)
	res.op(sameBest(before, d.best(order)) == 0)
	return res
}

// runFlap cycles the busiest router's session: close it (the reflector
// purges its routes and reflects the withdrawals), dial again, send its
// whole packed table in a seeded order, sentinel barrier. A cycle is
// one event; its download is one throughput window of as many routes
// as the router announces.
func runFlap(d *deployment, rng *rand.Rand, dur time.Duration, tr *tracer) result {
	var res result
	router, _ := d.busiest()
	all := make([]int, len(d.prefixes))
	for i := range all {
		all[i] = i
	}
	before := d.best(all)
	table := append([]bgp.Update(nil), d.tables[router]...)
	routes := d.routes[router]

	runtime.GC()
	first := d.watchFirst(tr)
	c0 := d.counters()
	deadline := time.Now().Add(dur)
	var windowSec []float64
	for op := uint64(1); time.Now().Before(deadline); op++ {
		rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
		runtime.GC()
		sp := tr.begin("flap.cycle", 0, op)
		start := time.Now()
		sendStart, end, ok := d.flapOnce(router, table, tr, sp, op)
		tr.end(sp, 1)
		res.events++
		res.attempted += routes
		if !ok {
			res.failed += routes
			continue
		}
		res.eventMs = append(res.eventMs, float64(end.Sub(start).Nanoseconds())/1e6)
		windowSec = append(windowSec, end.Sub(sendStart).Seconds())
		first = first.done(&res)
	}
	res.during = d.counters().sub(c0)
	res.rates = windowRates(routes, windowSec)
	res.op(sameBest(before, d.best(all)) == 0)
	res.op(d.wire.RR.NumPeers() == len(d.routers))
	return res
}

// flapOnce is one cycle. It returns when the first UPDATE of the
// download was sent and when the download had converged.
func (d *deployment) flapOnce(router netip.Addr, table []bgp.Update, tr *tracer, parent int, op uint64) (sendStart, end time.Time, ok bool) {
	obs := d.observer(router).watch
	obs.arm(withdrawsTotal(d.routes[router]))
	sp := tr.begin("core.purge", parent, op)
	old := d.peers[router]
	old.sess.Close()
	<-old.drained
	_, ok = obs.wait()
	tr.end(sp, 1)

	sp = tr.begin("bgp.session_up", parent, op)
	err := d.dial(router)
	tr.end(sp, 1)
	if err != nil {
		return sendStart, end, false
	}
	p := d.peers[router]
	sp = tr.begin("core.table_load", parent, op)
	sendStart = time.Now()
	for _, u := range table {
		ok = p.sess.SendUpdate(u) == nil && ok
	}
	end, err = d.barrier(p)
	tr.end(sp, d.routes[router])
	return sendStart, end, ok && err == nil
}

const (
	failoverEventShare = 0.55 // of the run: link transitions
	overrideWindow     = 200  // overrides per window
)

// override is one management override: pin prefix index i to router to.
// orig is the egress router each PoP's FIB held before, which Unforce
// must bring back.
type override struct {
	i    int
	to   netip.Addr
	orig []netip.Addr
}

// pickOverride draws a prefix and, among the routers that hold a
// candidate route to its origin, one that is not its current egress.
func (d *deployment) pickOverride(rng *rand.Rand) override {
	for {
		i := rng.IntN(len(d.prefixes))
		orig := make([]netip.Addr, len(d.engines))
		for e, eng := range d.engines {
			nh, _ := eng.Lookup(d.prefixes[i].Addr())
			orig[e] = nh.Router
		}
		cands := d.env.Peering.Candidates(d.env.Topo.Prefixes[i].Origin)
		for _, k := range rng.Perm(len(cands)) {
			if r := cands[k].Session.Router; r != orig[0] {
				return override{i, r, orig}
			}
		}
	}
}

// forcePair applies one ForceExit and the Unforce that undoes it, each
// verified in all 11 FIBs. With due times it is an open-loop generator:
// each op waits for its due time, is timed from it, and reports how
// late it started. sample receives each op's latency and lateness.
func (d *deployment) forcePair(o override, tr *tracer, op uint64, due *[2]time.Time, sample func(ms, lateMs float64, ok bool)) {
	pfx := d.prefixes[o.i]
	addr := pfx.Addr()
	for step := 0; step < 2; step++ {
		start, late := time.Now(), 0.0
		if due != nil {
			// Sleep to just before the due time and spin the rest: a
			// timer wake-up is up to a millisecond late, which would be
			// most of the latency measured from the due time.
			time.Sleep(time.Until(due[step]) - 2*time.Millisecond)
			for time.Now().Before(due[step]) {
			}
			start = due[step]
			late = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		sp := tr.begin("mgmt.override", 0, op)
		ok := true
		fe := tr.begin("core.force_exit", sp, op)
		if step == 0 {
			ok = d.env.RR.ForceExit(pfx, o.to) == nil
		} else {
			d.env.RR.Unforce(pfx)
		}
		tr.end(fe, 1)
		vf := tr.begin("fib.verify", sp, op)
		for e, eng := range d.engines {
			nh, found := eng.Lookup(addr)
			want := o.to
			if step == 1 {
				want = o.orig[e]
			}
			ok = ok && found && nh.Router == want
		}
		tr.end(vf, len(d.engines))
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		tr.end(sp, 1)
		sample(ms, late, ok)
	}
}

// runFailover drives the two control-plane paths that do not touch the
// wire. Phase A: down/up cycles of the SIN-SYD link through the health
// controller; SYD has that one link, so every transition isolates or
// restores a PoP and moves routes. Each Apply is one event. Phase B:
// windows of ForceExit/Unforce overrides on seeded prefixes, closed
// loop, each verified in all 11 FIBs.
func runFailover(d *deployment, rng *rand.Rand, dur time.Duration, tr *tracer) result {
	var res result
	sin, syd := d.env.Net.PoP("SIN"), d.env.Net.PoP("SYD")
	before := d.snapshot()

	runtime.GC()
	first := d.newFirstEvent() // every pass: isolating SYD must move routes
	c0 := d.counters()
	deadline := time.Now().Add(time.Duration(float64(dur) * failoverEventShare))
	for time.Now().Before(deadline) {
		var pair pairMean
		for _, up := range [2]bool{false, true} {
			runtime.GC()
			res.events++
			ms, ok := timed(tr, "health.apply", uint64(res.events), func(int) (time.Time, bool) {
				took := d.ctl.Apply(sin, syd, up)
				return time.Now(), took > 0
			})
			res.op(ok)
			pair.add(ms, ok, &res)
			if res.events == 1 {
				first.done(&res)
				res.op(res.firstMoved > 0)
			}
		}
	}
	res.during = d.counters().sub(c0)
	res.op(moved(before, d.snapshot()) == 0)

	runtime.GC()
	deadline = time.Now().Add(time.Duration(float64(dur) * (1 - failoverEventShare)))
	var windowSec []float64
	var op uint64
	for time.Now().Before(deadline) {
		picks := make([]override, overrideWindow/2)
		for k := range picks {
			picks[k] = d.pickOverride(rng)
		}
		ok := true
		runtime.GC()
		start := time.Now()
		for _, o := range picks {
			op++
			d.forcePair(o, tr, op, nil, func(_, _ float64, good bool) { ok = ok && good })
		}
		sec := time.Since(start).Seconds()
		res.attempted += overrideWindow
		if !ok {
			res.failed += overrideWindow
			continue
		}
		windowSec = append(windowSec, sec)
	}
	res.rates = windowRates(overrideWindow, windowSec)
	res.op(moved(before, d.snapshot()) == 0)
	return res
}

const (
	lookupAddrs  = 1 << 16
	lookupWindow = 2 << 20 // lookups per window
	writerHz     = 200     // open-loop override rate
)

// lookupSet is the reader's seeded address set: 15 of 16 addresses fall
// inside an announced prefix, the rest in unannounced space.
func (d *deployment) lookupSet(rng *rand.Rand) (addrs []netip.Addr, inside []bool) {
	addrs = make([]netip.Addr, lookupAddrs)
	inside = make([]bool, lookupAddrs)
	for k := range addrs {
		if k%16 == 15 {
			addrs[k] = netip.AddrFrom4([4]byte{200, byte(rng.IntN(256)), byte(rng.IntN(256)), byte(rng.IntN(256))})
			continue
		}
		b := d.prefixes[rng.IntN(len(d.prefixes))].Addr().As4()
		host := rng.IntN(1 << 12) // the world's prefixes are /20s
		b[2] |= byte(host >> 8)
		b[3] = byte(host)
		addrs[k], inside[k] = netip.AddrFrom4(b), true
	}
	return addrs, inside
}

// readWindows does windows of lookupWindow lookups round-robin across
// the 11 engines until stop is closed, and returns each window's
// seconds and how many lookups answered wrongly: a miss inside an
// announced prefix, or a hit outside.
func (d *deployment) readWindows(addrs []netip.Addr, inside []bool, tr *tracer, stop <-chan struct{}) (windowSec []float64, wrong uint64) {
	n := len(d.engines)
	for {
		select {
		case <-stop:
			return windowSec, wrong
		default:
		}
		sp := tr.begin("fib.lookup", 0, 0)
		start := time.Now()
		e := 0
		for j := 0; j < lookupWindow; j++ {
			k := j & (lookupAddrs - 1)
			if _, ok := d.engines[e].Lookup(addrs[k]); ok != inside[k] {
				wrong++
			}
			if e++; e == n {
				e = 0
			}
		}
		windowSec = append(windowSec, time.Since(start).Seconds())
		tr.end(sp, lookupWindow)
	}
}

// runDataplane reads the published FIBs beside a writer. One goroutine
// looks addresses up in windows; a second applies force/unforce
// overrides open loop at writerHz, each timed from when it was due
// until all 11 FIBs show it. An override is one event, a lookup one op.
func runDataplane(d *deployment, rng *rand.Rand, dur time.Duration, tr *tracer) result {
	var res result
	addrs, inside := d.lookupSet(rng)
	before := d.snapshot()

	runtime.GC()
	c0 := d.counters()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var windowSec []float64
	var wrong uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		windowSec, wrong = d.readWindows(addrs, inside, tr, stop)
	}()

	first := d.watchFirst(tr)
	start := time.Now()
	for op := uint64(0); time.Since(start) < dur; op++ {
		due := [2]time.Time{
			start.Add(time.Duration(2*op) * time.Second / writerHz),
			start.Add(time.Duration(2*op+1) * time.Second / writerHz),
		}
		var pair pairMean
		d.forcePair(d.pickOverride(rng), tr, op+1, &due, func(ms, lateMs float64, ok bool) {
			res.events++
			res.op(ok)
			pair.add(ms, ok, &res)
			res.lateMs = append(res.lateMs, lateMs)
			first = first.done(&res)
		})
	}
	close(stop)
	wg.Wait()

	res.during = d.counters().sub(c0)
	res.attempted += len(windowSec) * lookupWindow
	res.failed += int(wrong)
	res.rates = windowRates(lookupWindow, windowSec)
	res.op(moved(before, d.snapshot()) == 0)
	return res
}
