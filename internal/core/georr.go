// Package core implements the paper's primary contribution: the
// geo-based cold-potato route reflector (GeoRR). A modified route
// reflector assigns each route a LOCAL_PREF derived from the great-circle
// distance between the advertising egress router and the GeoIP location
// of the destination prefix — the lower the distance, the higher the
// preference, and always far above the default of 100 — then
// re-advertises the modified route to every other peer. The resulting
// routing prefers, for every destination, the geographically closest
// egress PoP: cold-potato routing.
//
// The package also implements the paper's management interface for the
// cases where geography picks the wrong exit: forcing a different exit
// PoP, exempting a globally spread prefix from geo-routing entirely, and
// statically advertising remote more-specifics tagged no-export.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"vns/internal/bgp"
	"vns/internal/detsort"
	"vns/internal/geo"
	"vns/internal/geoip"
	"vns/internal/telemetry"
)

// LocalPrefFunc maps the distance between an egress router and a
// destination prefix to a LOCAL_PREF value. Implementations must be
// monotonically non-increasing in distance and must return values well
// above rib.DefaultLocalPref so geo-routed routes always beat
// unprocessed ones.
type LocalPrefFunc func(distanceKm float64) uint32

// halfEarthKm bounds meaningful great-circle distances.
const halfEarthKm = 20038.0

// LinearLocalPref is the default mapping: LOCAL_PREF falls linearly from
// 2000 (zero distance) to 1000 (antipodal). Its resolution is about
// 20 km per unit, finer than GeoIP accuracy, so distinct PoPs virtually
// never collide.
func LinearLocalPref(distanceKm float64) uint32 {
	if distanceKm < 0 {
		distanceKm = 0
	}
	if distanceKm > halfEarthKm {
		distanceKm = halfEarthKm
	}
	return 1000 + uint32((halfEarthKm-distanceKm)/halfEarthKm*1000)
}

// StepLocalPref is the coarse alternative used in the ablation study: it
// buckets distance into 500 km steps. Coarse buckets tie nearby PoPs and
// fall back to the rest of the decision process.
func StepLocalPref(distanceKm float64) uint32 {
	if distanceKm < 0 {
		distanceKm = 0
	}
	if distanceKm > halfEarthKm {
		distanceKm = halfEarthKm
	}
	steps := uint32(distanceKm / 500)
	return 2000 - steps*10
}

// Egress describes one egress router known to the reflector.
type Egress struct {
	// ID is the router's BGP identifier.
	ID netip.Addr
	// Pos is the router's physical location, known ahead of time (the
	// paper provisions this per PoP).
	Pos geo.LatLon
	// PoP is a display name for diagnostics ("LON-1").
	PoP string
}

// Config configures a GeoRR.
type Config struct {
	// DB is the geolocation database queried per prefix.
	DB *geoip.DB
	// LocalPref maps distance to preference; nil means LinearLocalPref.
	LocalPref LocalPrefFunc
	// Telemetry, when non-nil, receives assignment-outcome counters and
	// collectors for the processed/miss totals.
	Telemetry *telemetry.Registry
}

// GeoRR is the geo-based route reflector. It is safe for concurrent use.
type GeoRR struct {
	cfg Config

	mu       sync.RWMutex
	egresses map[netip.Addr]Egress

	// downEgress marks egress routers withdrawn by liveness monitoring
	// (internal/health): a PoP failure downs all its routers, and their
	// routes stop being candidates everywhere until recovery.
	downEgress map[netip.Addr]bool

	// Management state (the paper's overrides).
	forced  map[netip.Prefix]netip.Addr // prefix -> forced egress router
	exempt  map[netip.Prefix]bool       // prefixes excluded from geo-routing
	statics []StaticRoute

	// Measured-delay overrides installed by internal/adaptive: the
	// prefix prefers this egress at AdaptiveLocalPref — above any
	// geographic preference, below a management force.
	overrides map[netip.Prefix]netip.Addr

	// Counters for observability, incremented while mu is at most
	// read-held.
	processed atomic.Uint64
	misses    atomic.Uint64

	// Change subscribers (the forwarding plane's FIB publishers). Own
	// lock so notification never nests inside mu: subscribers typically
	// re-resolve prefixes, which calls back into Assign. Each subscriber
	// gets a changed set in one call, which is what lets a FIB publisher
	// turn an UPDATE burst into a single delta publish.
	changeMu sync.Mutex
	onBatch  []func([]netip.Prefix)

	metrics *georrMetrics
}

// georrMetrics holds pre-resolved handles for every assignment outcome
// Assign can produce, so the per-route path pays one atomic add. Nil
// methods are no-ops.
type georrMetrics struct {
	assign     map[string]*telemetry.Counter // keyed by reason label
	assignVec  *telemetry.CounterVec         // for the lazily added "adaptive" child
	egressDown *telemetry.Counter
	egressUp   *telemetry.Counter
}

// assignReasons are the reason labels of core_assignments_total; "geo"
// is the successful distance-based assignment, the rest mirror
// Decision.Reason.
var assignReasons = []string{
	"geo", "exempt", "unknown_egress", "egress_down",
	"forced_here", "forced_other", "no_geolocation",
}

func newGeorrMetrics(rr *GeoRR, reg *telemetry.Registry) *georrMetrics {
	m := &georrMetrics{assign: make(map[string]*telemetry.Counter, len(assignReasons))}
	vec := reg.CounterVec("core_assignments_total", "geo local-pref assignments, by outcome", "reason")
	for _, reason := range assignReasons {
		m.assign[reason] = vec.With(reason)
	}
	// The "adaptive" child is NOT pre-created: it appears (at zero) in
	// rendered output the moment it exists, and only adaptive-enabled
	// runs should see it. SetOverride creates it on first use.
	m.assignVec = vec
	trans := reg.CounterVec("core_egress_transitions_total", "egress liveness withdrawals and restores", "state")
	m.egressDown = trans.With("down")
	m.egressUp = trans.With("up")
	reg.RegisterFunc("core_routes_processed_total", "routes run through geo assignment",
		telemetry.KindCounter, nil, func(emit func([]string, float64)) {
			p, _ := rr.Stats()
			emit(nil, float64(p))
		})
	reg.RegisterFunc("core_geo_misses_total", "prefixes the geolocation database could not place",
		telemetry.KindCounter, nil, func(emit func([]string, float64)) {
			_, misses := rr.Stats()
			emit(nil, float64(misses))
		})
	return m
}

func (m *georrMetrics) assigned(reason string) {
	if m == nil {
		return
	}
	if c, ok := m.assign[reason]; ok {
		c.Inc()
	}
}

func (m *georrMetrics) egressTransition(down bool) {
	if m == nil {
		return
	}
	if down {
		m.egressDown.Inc()
	} else {
		m.egressUp.Inc()
	}
}

// StaticRoute is a more-specific prefix statically advertised from a
// chosen egress (for subnets far from their covering prefix), tagged
// no-export so it never leaks outside the VNS AS.
type StaticRoute struct {
	Prefix netip.Prefix
	Egress netip.Addr
}

// New creates a GeoRR.
func New(cfg Config) *GeoRR {
	if cfg.LocalPref == nil {
		cfg.LocalPref = LinearLocalPref
	}
	rr := &GeoRR{
		cfg:        cfg,
		egresses:   make(map[netip.Addr]Egress),
		downEgress: make(map[netip.Addr]bool),
		forced:     make(map[netip.Prefix]netip.Addr),
		exempt:     make(map[netip.Prefix]bool),
		overrides:  make(map[netip.Prefix]netip.Addr),
	}
	if cfg.Telemetry != nil {
		rr.metrics = newGeorrMetrics(rr, cfg.Telemetry)
	}
	return rr
}

// AddEgress registers an egress router with its location.
func (rr *GeoRR) AddEgress(e Egress) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.egresses[e.ID] = e
}

// Egresses returns the registered egress routers in router-id order, so
// listings (the management interface's `egresses` command) are stable.
func (rr *GeoRR) Egresses() []Egress {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	out := make([]Egress, 0, len(rr.egresses))
	for _, e := range rr.egresses {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// Decision is the outcome of geo-processing one route.
type Decision struct {
	// LocalPref is the assigned preference; 0 means "leave the route
	// unmodified" (exempt prefix or no geolocation).
	LocalPref uint32
	// DistanceKm is the computed egress-to-prefix distance.
	DistanceKm float64
	// Record is the database record used.
	Record geoip.Record
	// Reason explains non-assignment ("exempt", "no geolocation",
	// "forced to other egress", "") for logs and tests.
	Reason string
}

// Assign computes the local preference for a route to prefix learned
// from egress router from. This is the heart of the paper's mechanism.
func (rr *GeoRR) Assign(from netip.Addr, prefix netip.Prefix) Decision {
	rr.processed.Add(1)
	rr.mu.RLock()
	defer rr.mu.RUnlock()

	if rr.exempt[prefix] {
		rr.metrics.assigned("exempt")
		return Decision{Reason: "exempt"}
	}
	eg, ok := rr.egresses[from]
	if !ok {
		rr.metrics.assigned("unknown_egress")
		return Decision{Reason: fmt.Sprintf("unknown egress %v", from)}
	}
	if rr.downEgress[from] {
		// Withdrawn by liveness monitoring: no preference, so the route
		// never beats a geo-processed alternative while the egress is
		// out of service.
		rr.metrics.assigned("egress_down")
		return Decision{Reason: "egress down"}
	}
	if forcedTo, ok := rr.forced[prefix]; ok {
		// A forced prefix gets maximum preference at its designated
		// egress and none elsewhere, overriding geography.
		if forcedTo == from {
			rr.metrics.assigned("forced_here")
			return Decision{LocalPref: 4000, Reason: "forced here"}
		}
		rr.metrics.assigned("forced_other")
		return Decision{Reason: "forced to other egress"}
	}
	if over, ok := rr.overrides[prefix]; ok && over == from {
		// Measured delay contradicts geography here: the adaptive
		// controller pinned this egress. Other egresses keep their
		// geographic preference (always below AdaptiveLocalPref), so if
		// this router is withdrawn the prefix degrades to geo-routing
		// instead of losing all preference.
		rr.metrics.assigned("adaptive")
		return Decision{LocalPref: AdaptiveLocalPref, Reason: "adaptive"}
	}
	rec, ok := rr.cfg.DB.LookupPrefix(prefix)
	if !ok {
		rr.misses.Add(1)
		rr.metrics.assigned("no_geolocation")
		return Decision{Reason: "no geolocation"}
	}
	d := geo.DistanceKm(eg.Pos, rec.Pos)
	rr.metrics.assigned("geo")
	return Decision{
		//vnslint:lockheld LocalPref is a pure distance→preference curve; it cannot re-enter the GeoRR
		LocalPref:  rr.cfg.LocalPref(d),
		DistanceKm: d,
		Record:     rec,
	}
}

// SetEgressDown marks an egress router withdrawn (down=true) or
// restored (down=false) for liveness purposes and reports whether the
// state changed. While down, Assign refuses to prefer the router's
// routes, so reselection falls to the geographically next-best healthy
// egress. It republishes nothing: the failover controller
// (internal/health) calls it from its link-state sweep and its Drain,
// and republishes the FIBs itself; Drain is what the management
// interface's egress-down and egress-up reach in a deployment.
func (rr *GeoRR) SetEgressDown(id netip.Addr, down bool) bool {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.downEgress[id] == down {
		return false
	}
	if down {
		rr.downEgress[id] = true
	} else {
		delete(rr.downEgress, id)
	}
	rr.metrics.egressTransition(down)
	return true
}

// EgressDown reports whether liveness monitoring has withdrawn the
// egress router.
func (rr *GeoRR) EgressDown(id netip.Addr) bool {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	return rr.downEgress[id]
}

// DownEgresses returns the currently withdrawn egress routers in
// address order.
func (rr *GeoRR) DownEgresses() []netip.Addr {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	return detsort.KeysFunc(rr.downEgress, netip.Addr.Compare)
}

// OnChangeBatch registers fn to be invoked once per change event with
// the full set of prefixes whose routing outcome may have changed:
// management overrides (force-exit, exempt, statics) and re-advertised
// updates. This is how the reflector publishes FIB recompiles —
// subscribers mark the set dirty and rebuild their compiled tables
// (vns.Forwarding.InvalidateBatch is the intended callback, one flush
// per PoP per event). Callbacks run synchronously on the mutating
// goroutine, after GeoRR locks are released; they may call back into
// the GeoRR.
func (rr *GeoRR) OnChangeBatch(fn func([]netip.Prefix)) {
	rr.changeMu.Lock()
	defer rr.changeMu.Unlock()
	rr.onBatch = append(rr.onBatch, fn)
}

// NotifyChanged fans a change event out to every subscriber — the
// notification every management mutation performs. The wire reflector
// (RRServer) uses it to deliver one batched event per UPDATE after
// processing every NLRI through ProcessUpdateQuiet, so the forwarding
// plane sees one invalidation per UPDATE instead of one per prefix.
// Callers must not hold rr.mu.
func (rr *GeoRR) NotifyChanged(prefixes ...netip.Prefix) {
	if len(prefixes) == 0 {
		return
	}
	rr.changeMu.Lock()
	fns := rr.onBatch
	rr.changeMu.Unlock()
	for _, fn := range fns {
		fn(prefixes)
	}
}

// ProcessUpdateQuiet applies geo-routing to one received UPDATE from
// an egress router and returns it with the geo local-pref rewrite on a
// copy of its attributes; withdrawals pass through. The RFC 4456
// reflection attributes are the wire reflector's to stamp (RRServer),
// since they carry its identity. It does not notify change
// subscribers: a caller ingesting a whole UPDATE (RRServer) processes
// every NLRI through this, then delivers one NotifyChanged for the
// union, so the forwarding plane's per-PoP publishers flush once per
// UPDATE — and so the convergence span's geo-assignment stage does not
// overlap its forwarding stage.
func (rr *GeoRR) ProcessUpdateQuiet(from netip.Addr, u bgp.Update) bgp.Update {
	out := bgp.Update{Withdrawn: u.Withdrawn}
	if len(u.NLRI) == 0 {
		return out
	}
	// Routes in one UPDATE share attributes but may geolocate
	// differently; the caller splits multi-prefix updates. The common
	// single-prefix case is handled directly.
	attrs := u.Attrs.Clone()
	dec := rr.Assign(from, u.NLRI[0])
	if dec.LocalPref > 0 {
		attrs.LocalPref = dec.LocalPref
		attrs.HasLocalPref = true
	}
	out.Attrs = attrs
	out.NLRI = u.NLRI
	return out
}

// DB returns the geolocation database the reflector queries (the
// cross-layer route tracer looks prefixes up through it).
func (rr *GeoRR) DB() *geoip.DB { return rr.cfg.DB }

// Stats returns (routes processed, geolocation misses).
func (rr *GeoRR) Stats() (processed, misses uint64) {
	return rr.processed.Load(), rr.misses.Load()
}
