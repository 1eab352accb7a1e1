package main

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/experiments"
	"vns/internal/fib"
	"vns/internal/health"
	"vns/internal/rib"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

const (
	// worldSeed is vnsd's default -seed. The synthetic Internet is part
	// of the deployment, not of the workload: its size moves with its
	// seed (by several per cent in prefix count), and set-up time, live heap
	// and failover cost all scale with it, so --seed drives only the
	// operations a workload applies to this one world.
	worldSeed = 1
	// numAS sizes the world: 358 prefixes, 3 938 routes over the 22
	// sessions. vnsd defaults to 800 (2 110 prefixes); at that size one
	// set-up takes 13 s, and a run sets up three times inside the
	// benchmark's time cap.
	numAS = 120
	// warmupNumAS sizes the deployment that is built, loaded and thrown
	// away before the set-up clock starts.
	warmupNumAS = 60
	// opTimeout is how long an operation may stay unobserved before it
	// counts as failed.
	opTimeout = 2 * time.Second
	// maxNLRI caps the prefixes packed into one UPDATE so the message
	// stays under BGP's 4096-byte limit whatever the AS path length.
	maxNLRI = 500
)

// watcher is the observing half of a session: the drain goroutine shows
// it every received UPDATE, and an armed watcher reports the wall time
// of the first one its match function accepts.
type watcher struct {
	armed atomic.Bool

	mu    sync.Mutex
	match func(bgp.Update) bool
	hit   chan time.Time
}

func newWatcher() *watcher { return &watcher{hit: make(chan time.Time, 1)} }

// arm must be called before the operation that causes the awaited
// UPDATE is sent.
func (w *watcher) arm(match func(bgp.Update) bool) {
	w.mu.Lock()
	select {
	case <-w.hit: // a hit that arrived after its wait timed out
	default:
	}
	w.match = match
	w.mu.Unlock()
	w.armed.Store(true)
}

func (w *watcher) see(u bgp.Update) {
	if !w.armed.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.match != nil && w.match(u) {
		w.match = nil
		w.armed.Store(false)
		w.hit <- time.Now()
	}
}

// wait returns when the armed match was seen, or false after opTimeout.
func (w *watcher) wait() (time.Time, bool) {
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	select {
	case t := <-w.hit:
		return t, true
	case <-timer.C:
		w.armed.Store(false)
		return time.Time{}, false
	}
}

// announces matches a reflected announcement of p. Withdrawals of p do
// not match: a purge withdraws whatever the dead session had announced,
// and must not release a barrier waiting for an announcement.
func announces(p netip.Prefix) func(bgp.Update) bool {
	return func(u bgp.Update) bool { return slices.Contains(u.NLRI, p) }
}

func withdraws(p netip.Prefix) func(bgp.Update) bool {
	return func(u bgp.Update) bool { return slices.Contains(u.Withdrawn, p) }
}

// withdrawsTotal matches once n prefixes have been withdrawn in total,
// which is how the end of a session purge is seen from outside.
func withdrawsTotal(n int) func(bgp.Update) bool {
	seen := 0
	return func(u bgp.Update) bool {
		seen += len(u.Withdrawn)
		return seen >= n
	}
}

// peer is one egress router played by the harness: a real BGP session
// over loopback TCP and the goroutine that drains its reflections.
type peer struct {
	router  netip.Addr
	sess    *bgp.Session
	watch   *watcher
	drained chan struct{}
}

// deployment is the assembled system under test plus the harness's 22
// router sessions.
type deployment struct {
	env     *experiments.Env
	wire    *vns.WireDeployment
	fwd     *vns.Forwarding
	ctl     *health.Controller
	engines []*fib.Engine

	routers  []netip.Addr // PoP order, two per PoP
	peers    map[netip.Addr]*peer
	tables   map[netip.Addr][]bgp.Update         // packed full table per router
	routes   map[netip.Addr]int                  // routes in that table
	attrs    map[netip.Addr]map[uint16]bgp.Attrs // announcement attributes per origin AS
	prefixes []netip.Prefix                      // every originated prefix, allocation order

	rx        atomic.Uint64 // UPDATEs received on all harness sessions
	sentinels uint32
	setup     setupStats
}

// setupStats is what one set-up cost.
type setupStats struct {
	total    time.Duration
	allocMB  float64
	gcCycles uint32
}

// setUp assembles a deployment of size ASes with the calls
// cmd/vnsd/main.go makes, in its order, then plays the 22 egress routers: dial, download the
// full table one session at a time, and wait until the last sentinel
// is reflected. The one stated difference from vnsd is Debounce 0: a
// FIB publish is synchronous, so the reflector reflects an UPDATE only
// after all 11 PoP FIBs are republished, and "converged" is visible on
// the wire.
func setUp(size int, tr *tracer) (*deployment, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sp := tr.begin("experiments.env_build", 0, 0)
	d := newDeployment(experiments.NewEnv(experiments.Config{Seed: worldSeed, NumAS: size}))
	tr.end(sp, 1)

	w, err := vns.StartWireDeployment("127.0.0.1:0", d.env.DP, d.env.RR, netip.MustParseAddr("10.0.0.100"))
	if err != nil {
		return nil, fmt.Errorf("starting reflector: %w", err)
	}
	d.wire = w
	w.RR.SetTelemetry(d.env.Telemetry)

	sp = tr.begin("vns.forwarding_build", 0, 0)
	d.fwd = d.env.Forwarding(vns.ForwardingConfig{
		Debounce:         0,
		ConvergenceClock: func() float64 { return time.Since(start).Seconds() },
	})
	tr.end(sp, 1)
	d.env.Telemetry.MarkVolatile(telemetry.ConvVolatileFamilies...)
	w.RR.SetConvergence(d.fwd.Convergence())
	d.ctl = health.NewController(d.fwd, d.env.RR, nil)
	d.engines = d.fwd.Engines()

	d.buildTables()
	for _, r := range d.routers {
		sp = tr.begin("bgp.session_up", 0, 0)
		err := d.dial(r)
		tr.end(sp, 1)
		if err != nil {
			d.close()
			return nil, err
		}
	}
	// A session is reflected to only once the reflector has registered
	// it, which happens on its goroutine after the handshake.
	deadline := time.Now().Add(opTimeout)
	for w.RR.NumPeers() != len(d.routers) {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("reflector registered %d of %d sessions", w.RR.NumPeers(), len(d.routers))
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, r := range d.routers {
		sp = tr.begin("core.table_load", 0, 0)
		_, err := d.load(d.peers[r])
		tr.end(sp, d.routes[r])
		if err != nil {
			d.close()
			return nil, fmt.Errorf("loading %v: %w", r, err)
		}
	}

	d.setup.total = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	d.setup.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	d.setup.gcCycles = after.NumGC - before.NumGC
	return d, nil
}

func newDeployment(env *experiments.Env) *deployment {
	return &deployment{
		env:    env,
		peers:  make(map[netip.Addr]*peer),
		tables: make(map[netip.Addr][]bgp.Update),
		routes: make(map[netip.Addr]int),
		attrs:  make(map[netip.Addr]map[uint16]bgp.Attrs),
	}
}

// buildTables computes what each egress router advertises into iBGP,
// as vns.WireDeployment does for vnsd's in-process routers: for every
// origin AS, each PoP's locally best session contributes one
// announcement from its router. The prefixes of one origin share their
// attributes and go out packed in one UPDATE, as a real speaker packs
// them.
func (d *deployment) buildTables() {
	for _, pop := range d.env.Net.PoPs {
		for _, r := range pop.Routers {
			d.routers = append(d.routers, r)
			d.attrs[r] = make(map[uint16]bgp.Attrs)
		}
	}
	byOrigin := make(map[uint16][]netip.Prefix)
	var origins []uint16
	for i := range d.env.Topo.Prefixes {
		pi := &d.env.Topo.Prefixes[i]
		d.prefixes = append(d.prefixes, pi.Prefix)
		if _, seen := byOrigin[pi.Origin]; !seen {
			origins = append(origins, pi.Origin)
		}
		byOrigin[pi.Origin] = append(byOrigin[pi.Origin], pi.Prefix)
	}
	for _, origin := range origins {
		for _, pop := range d.env.Net.PoPs {
			c, ok := d.env.DP.LocalEgressSession(pop, origin)
			if !ok {
				continue
			}
			r := c.Session.Router
			a := bgp.Attrs{
				ASPath:  []bgp.ASPathSegment{{ASNs: wirePath(c, origin)}},
				NextHop: r,
			}
			d.attrs[r][origin] = a
			nlri := byOrigin[origin]
			d.routes[r] += len(nlri)
			for len(nlri) > 0 {
				n := min(len(nlri), maxNLRI)
				d.tables[r] = append(d.tables[r], bgp.Update{Attrs: a, NLRI: nlri[:n]})
				nlri = nlri[n:]
			}
		}
	}
}

// wirePath is the AS path the neighbor's announcement carries: the
// neighbor, then its valley-free path to the origin.
func wirePath(c vns.Candidate, origin uint16) []uint16 {
	nb := c.Session.Neighbor
	path := []uint16{nb.ASN}
	if rest, ok := nb.View.PathTo(origin); ok {
		return append(path, rest...)
	}
	for len(path) < c.PathLen {
		path = append(path, uint16(64000+len(path)))
	}
	return path
}

// announcement is router's single-prefix announcement of the i-th
// prefix, with the attributes its full table carries.
func (d *deployment) announcement(router netip.Addr, i int) bgp.Update {
	pi := &d.env.Topo.Prefixes[i]
	return bgp.Update{Attrs: d.attrs[router][pi.Origin], NLRI: []netip.Prefix{pi.Prefix}}
}

// dial opens router's session and starts draining it.
func (d *deployment) dial(router netip.Addr) error {
	sess, err := core.DialRR(d.wire.RR.Addr(), vns.ASN, router)
	if err != nil {
		return fmt.Errorf("dialing as %v: %w", router, err)
	}
	p := &peer{router: router, sess: sess, watch: newWatcher(), drained: make(chan struct{})}
	d.peers[router] = p
	go func() {
		defer close(p.drained)
		for u := range sess.Updates() {
			d.rx.Add(1)
			p.watch.see(u)
		}
	}()
	return nil
}

// observer is the session reflections from router are watched on: the
// first router that is not router itself.
func (d *deployment) observer(router netip.Addr) *peer {
	for _, r := range d.routers {
		if r != router {
			return d.peers[r]
		}
	}
	return nil
}

// barrier announces a benchmark-owned /32 on from's session and returns
// the wall time its reflection reached the observer. A session's
// UPDATEs are processed in order and an announcement is reflected only
// after its FIB fan-out, so everything from sent earlier has converged
// by then. The sentinel is withdrawn again before barrier returns, so
// the Loc-RIB holds none between operations.
func (d *deployment) barrier(from *peer) (time.Time, error) {
	d.sentinels++
	n := d.sentinels
	s := netip.PrefixFrom(netip.AddrFrom4([4]byte{240, byte(n >> 16), byte(n >> 8), byte(n)}), 32)
	obs := d.observer(from.router).watch

	obs.arm(announces(s))
	err := from.sess.SendUpdate(bgp.Update{
		Attrs: bgp.Attrs{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{64999}}}, NextHop: from.router},
		NLRI:  []netip.Prefix{s},
	})
	if err != nil {
		return time.Time{}, err
	}
	at, ok := obs.wait()
	if !ok {
		return time.Time{}, fmt.Errorf("sentinel %v not reflected within %v", s, opTimeout)
	}
	obs.arm(withdraws(s))
	if err := from.sess.SendUpdate(bgp.Update{Withdrawn: []netip.Prefix{s}}); err != nil {
		return time.Time{}, err
	}
	if _, ok := obs.wait(); !ok {
		return time.Time{}, fmt.Errorf("sentinel %v withdrawal not reflected within %v", s, opTimeout)
	}
	return at, nil
}

// load sends p's whole packed table and returns when it has converged.
func (d *deployment) load(p *peer) (time.Time, error) {
	for _, u := range d.tables[p.router] {
		if err := p.sess.SendUpdate(u); err != nil {
			return time.Time{}, err
		}
	}
	return d.barrier(p)
}

// close tears the deployment down and waits for every goroutine the
// harness started.
func (d *deployment) close() {
	for _, p := range d.peers {
		p.sess.Close()
	}
	for _, p := range d.peers {
		<-p.drained
	}
	d.wire.Close()
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// checker counts checks made and failed; failures are explained on
// standard error.
type checker struct {
	attempted, failed int
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "vnsbench: FAILED: "+format+"\n", args...)
	}
}

// checkLoaded verifies the state set-up must reach: every session up,
// every prefix (and no sentinel) in the Loc-RIB, and for 200 seeded
// prefixes the egress PoP in all 11 FIBs equal to the geo oracle's.
func (d *deployment) checkLoaded(rng *rand.Rand, c *checker) {
	c.expect(d.wire.RR.NumPeers() == len(d.routers), "NumPeers = %d, want %d", d.wire.RR.NumPeers(), len(d.routers))
	c.expect(d.wire.RR.NumRoutes() == len(d.prefixes), "NumRoutes = %d, want %d", d.wire.RR.NumRoutes(), len(d.prefixes))
	for k := 0; k < 200; k++ {
		pi := &d.env.Topo.Prefixes[rng.IntN(len(d.prefixes))]
		want := d.env.GeoEgressPoP(pi)
		if want == nil {
			c.expect(false, "%v: the geo oracle has no egress", pi.Prefix)
			continue
		}
		// Two PoPs equally far from the prefix get the same LOCAL_PREF
		// and the IGP metric from each vantage breaks the tie, so a FIB
		// agrees with the oracle when its egress is as preferred.
		pref := d.env.RR.Assign(want.Routers[0], pi.Prefix).LocalPref
		ok := true
		for _, eng := range d.engines {
			nh, found := eng.Lookup(pi.Prefix.Addr())
			ok = ok && found && (nh.PoP == want.ID || d.env.RR.Assign(nh.Router, pi.Prefix).LocalPref == pref)
		}
		c.expect(ok, "%v: some FIB disagrees with the geo oracle (%v)", pi.Prefix, want)
	}
}

// snapshot is the next hop of every prefix in every PoP's FIB, prefix
// major; a prefix without a route holds the zero NextHop.
func (d *deployment) snapshot() []fib.NextHop {
	out := make([]fib.NextHop, 0, len(d.prefixes)*len(d.engines))
	for _, p := range d.prefixes {
		for _, eng := range d.engines {
			nh, _ := eng.Lookup(p.Addr())
			out = append(out, nh)
		}
	}
	return out
}

// moved counts the entries that differ between two snapshots.
func moved(a, b []fib.NextHop) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// best returns the reflector's best route for each given prefix index.
func (d *deployment) best(idx []int) []*rib.Route {
	out := make([]*rib.Route, len(idx))
	for k, i := range idx {
		out[k] = d.wire.RR.Best(d.prefixes[i])
	}
	return out
}

// sameBest counts positions where two best-route lists differ by value.
func sameBest(a, b []*rib.Route) (mismatches int) {
	for i := range a {
		if !a[i].Equal(b[i]) {
			mismatches++
		}
	}
	return mismatches
}

// busiest returns the router that holds the most best paths in the
// reflector's Loc-RIB (lowest address on a tie) and the indexes of the
// prefixes it is best for.
func (d *deployment) busiest() (netip.Addr, []int) {
	held := make(map[netip.Addr][]int)
	for i, p := range d.prefixes {
		if b := d.wire.RR.Best(p); b != nil {
			held[b.PeerID] = append(held[b.PeerID], i)
		}
	}
	var top netip.Addr
	for _, r := range d.routers {
		if len(held[r]) > len(held[top]) {
			top = r
		}
	}
	return top, held[top]
}

// counters is a reading of the counts kept at layer boundaries.
type counters struct {
	assigns  uint64 // GeoRR.Assign calls
	deltas   uint64 // FIB publishes patched copy-on-write, all PoPs
	compiles uint64 // FIB publishes compiled in full, all PoPs
	skipped  uint64 // FIB flushes that changed nothing, all PoPs
	rx       uint64 // UPDATEs received by the harness's sessions
	mallocs  uint64
	allocB   uint64
	cpu      time.Duration // user + system
}

func (d *deployment) counters() counters {
	var c counters
	c.assigns, _ = d.env.RR.Stats()
	for _, eng := range d.engines {
		s := eng.Publisher().Stats()
		c.deltas += s.DeltaCompiles
		c.compiles += s.Compiles
		c.skipped += s.SkippedCompiles
	}
	c.rx = d.rx.Load()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocB = m.Mallocs, m.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		assigns: c.assigns - o.assigns, deltas: c.deltas - o.deltas, compiles: c.compiles - o.compiles,
		skipped: c.skipped - o.skipped, rx: c.rx - o.rx, mallocs: c.mallocs - o.mallocs,
		allocB: c.allocB - o.allocB, cpu: c.cpu - o.cpu,
	}
}
