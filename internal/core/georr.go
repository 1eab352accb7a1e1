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
	"maps"
	"net/netip"
	"slices"
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
	// Telemetry, when non-nil, receives the assignment-outcome, processed
	// and miss collectors and the egress transition counters.
	Telemetry *telemetry.Registry
}

// GeoRR is the geo-based route reflector. It is safe for concurrent use:
// its routing state is one immutable Policy behind an atomic pointer,
// so readers take no lock, and each mutation publishes the next Policy
// before it notifies the change subscribers.
type GeoRR struct {
	cfg Config

	policy atomic.Pointer[Policy]

	// outcomes counts every Policy's Assign calls by Reason: the one
	// record Stats and the core_* assignment families read.
	outcomes [numReasons]atomic.Uint64
	// overridden is set by the first SetOverride naming a registered
	// egress; only from then on does core_assignments_total render its
	// "adaptive" line.
	overridden atomic.Bool

	transitions map[bool]*telemetry.Counter // egress liveness, keyed by down; nil without telemetry
}

// Reason is the outcome of one Assign, and the reason label it counts
// under in core_assignments_total.
type Reason uint8

// The Assign outcomes. ReasonGeo, the zero value, is the distance-based
// assignment; every other outcome leaves LOCAL_PREF 0 but for
// ReasonForcedHere and ReasonAdaptive.
const (
	ReasonGeo Reason = iota
	ReasonExempt
	ReasonUnknownEgress
	ReasonEgressDown
	ReasonForcedHere
	ReasonForcedOther
	ReasonNoGeolocation
	ReasonAdaptive
	numReasons
)

var reasonLabels = [numReasons]string{
	"geo", "exempt", "unknown_egress", "egress_down",
	"forced_here", "forced_other", "no_geolocation", "adaptive",
}

// String returns r's core_assignments_total label.
func (r Reason) String() string { return reasonLabels[r] }

// register adds the GeoRR's metric families to reg. The assignment
// families are collectors over rr.outcomes, so Assign pays one atomic
// add whether or not telemetry is on.
func (rr *GeoRR) register(reg *telemetry.Registry) {
	reg.RegisterFunc("core_assignments_total", "geo local-pref assignments, by outcome",
		telemetry.KindCounter, []string{"reason"}, func(emit func([]string, float64)) {
			for r := range numReasons {
				// Runs that never install an override render (and
				// digest) exactly as before the adaptive subsystem.
				if r != ReasonAdaptive || rr.overridden.Load() {
					emit([]string{r.String()}, float64(rr.outcomes[r].Load()))
				}
			}
		})
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
	trans := reg.CounterVec("core_egress_transitions_total", "egress liveness withdrawals and restores", "state")
	rr.transitions = map[bool]*telemetry.Counter{true: trans.With("down"), false: trans.With("up")}
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
	rr := &GeoRR{cfg: cfg}
	if cfg.Telemetry != nil {
		rr.register(cfg.Telemetry)
	}
	rr.policy.Store(&Policy{rr: rr})
	return rr
}

// Policy returns the current policy. Everything read from one Policy
// belongs to one state of the GeoRR, whatever mutations land meanwhile.
func (rr *GeoRR) Policy() *Policy { return rr.policy.Load() }

// AddEgress registers an egress router with its location, and builds
// its distance row over the GeoIP DB as it stands. Registering the same
// router at the same location again changes nothing unless the DB has
// taken an Insert since, in which case it rebuilds the row. It notifies
// no change subscriber, though a new router may move any prefix's
// preferences: a forwarding plane reads them when it is built
// (vns.NewForwarding) and after notifications, so every egress is
// registered before the plane is built.
func (rr *GeoRR) AddEgress(e Egress) {
	reg := registered{e, rr.distances(e.Pos)}
	rr.update(func(p *Policy) (bool, error) {
		if old, ok := p.egresses[e.ID]; ok && old.Egress == e && old.row.gen == reg.row.gen {
			return false, nil
		}
		put(&p.egresses, e.ID, reg)
		i, found := slices.BinarySearchFunc(p.egressList, e.ID, func(a Egress, id netip.Addr) int { return a.ID.Compare(id) })
		if p.egressList = slices.Clone(p.egressList); found {
			p.egressList[i] = e
		} else {
			p.egressList = slices.Insert(p.egressList, i, e)
		}
		return true, nil
	}, netip.Prefix{})
}

// registered is one registered egress router with its distance row.
type registered struct {
	Egress
	row *distRow
}

// distRow is one egress router's great-circle distance to every record
// of the GeoIP DB at generation gen: km[i] is the distance to the record
// with index i (km[0] is unused). Assign reads it only while the DB is
// still at gen.
type distRow struct {
	gen uint64
	km  []float64
}

// distances builds the distance row of an egress router at pos.
func (rr *GeoRR) distances(pos geo.LatLon) *distRow {
	db := rr.cfg.DB
	row := &distRow{gen: db.Generation(), km: make([]float64, db.Len()+1)}
	for i := 1; i < len(row.km); i++ {
		row.km[i] = geo.DistanceKm(pos, db.At(i).Pos)
	}
	return row
}

// Decision is the outcome of geo-processing one route.
type Decision struct {
	// LocalPref is the assigned preference; 0 means "leave the route
	// unmodified" (exempt prefix or no geolocation).
	LocalPref uint32
	// DistanceKm is the egress-to-prefix distance of a ReasonGeo
	// assignment.
	DistanceKm float64
	// Reason is the outcome.
	Reason Reason
}

// Assign computes the local preference for a route to prefix learned
// from egress router from under the current policy: Policy().Assign.
func (rr *GeoRR) Assign(from netip.Addr, prefix netip.Prefix) Decision {
	return rr.Policy().Assign(from, prefix)
}

// SetEgressDown marks an egress router withdrawn (down=true) or
// restored (down=false) for liveness purposes and reports whether the
// state changed. While down, Assign refuses to prefer the router's
// routes, so reselection falls to the geographically next-best healthy
// egress. It is the one policy change that notifies no change
// subscriber: liveness moves no prefix's preferences (Preference), only
// how they resolve, so a forwarding plane re-resolves its path-lists
// when told to (vns.Forwarding.InvalidateAll) rather than reading any
// prefix again. The failover controller (internal/health) calls it from
// its link-state sweep and its Drain and then does exactly that; Drain
// is what the management interface's egress-down and egress-up reach in
// a deployment. Every other mutation notifies the prefixes it changes.
func (rr *GeoRR) SetEgressDown(id netip.Addr, down bool) bool {
	changed, _ := rr.update(func(p *Policy) (bool, error) {
		if !put(&p.down, id, down) {
			return false, nil
		}
		p.downList = detsort.KeysFunc(p.down, netip.Addr.Compare)
		return true, nil
	}, netip.Prefix{})
	if changed && rr.transitions != nil {
		rr.transitions[down].Inc()
	}
	return changed
}

// OnChangeBatch registers fn to be invoked once per change event with
// the full set of prefixes whose routing outcome may have changed:
// management overrides (force-exit, exempt, statics) and re-advertised
// updates. This is how the reflector publishes FIB recompiles —
// subscribers mark the set dirty and rebuild their compiled tables
// (vns.Forwarding.InvalidateBatch is the intended callback, one flush
// per PoP per event). Callbacks run synchronously on the mutating
// goroutine after the new Policy is published, so they read it; the
// GeoRR holds no lock, so they may call back into it. A mutation that
// changes nothing notifies nobody.
func (rr *GeoRR) OnChangeBatch(fn func([]netip.Prefix)) {
	rr.update(func(p *Policy) (bool, error) {
		p.onBatch = append(slices.Clip(p.onBatch), fn)
		return true, nil
	}, netip.Prefix{})
}

// NotifyChanged fans a change event out to every subscriber — the
// notification every management mutation performs. Reflector.Ingest
// uses it to deliver one batched event per UPDATE after processing
// every NLRI through ProcessUpdateQuiet, so the forwarding plane sees
// one invalidation per UPDATE instead of one per prefix.
// It may be called from anywhere, a subscriber included.
func (rr *GeoRR) NotifyChanged(prefixes ...netip.Prefix) {
	if len(prefixes) == 0 {
		return
	}
	for _, fn := range rr.Policy().onBatch {
		fn(prefixes)
	}
}

// update publishes the next policy, then notifies subscribers of the
// prefix it changed, if valid. edit gets a copy of the current policy
// and reports whether it changed it; it replaces the maps and slices
// it changes (put does), since they are shared with the current one.
// Writers meet in a compare-and-swap: if another published first, edit
// runs again on the newer policy, so it must only build.
func (rr *GeoRR) update(edit func(next *Policy) (bool, error), changed netip.Prefix) (bool, error) {
	for {
		cur := rr.policy.Load()
		next := *cur
		if ok, err := edit(&next); !ok || err != nil {
			return false, err
		}
		if next.changed[0] = changed; rr.policy.CompareAndSwap(cur, &next) {
			if changed.IsValid() {
				rr.NotifyChanged(next.changed[:]...)
			}
			return true, nil
		}
	}
}

// put points *m at a copy of it in which k maps to v, or has no k when
// v is the zero value (what reading an absent key gives; a map left
// empty is nil). It reports whether that changed anything, and copies
// nothing when it did not.
func put[K, V comparable](m *map[K]V, k K, v V) bool {
	var zero V
	if old, ok := (*m)[k]; old == v && ok == (v != zero) {
		return false
	}
	var c map[K]V
	if v != zero || len(*m) > 1 {
		c = make(map[K]V, len(*m)+1)
		maps.Copy(c, *m)
		if c[k] = v; v == zero {
			delete(c, k)
		}
	}
	*m = c
	return true
}

// ProcessUpdateQuiet applies geo-routing to one received UPDATE from
// an egress router and returns it with the geo local-pref rewrite on a
// copy of its attributes; withdrawals pass through. The RFC 4456
// reflection attributes are the Reflector's to stamp, since they carry
// its identity. It does not notify change subscribers: a caller
// ingesting a whole UPDATE (Reflector.Ingest) processes every NLRI
// through this, then delivers one NotifyChanged for the union, so the
// forwarding plane's per-PoP publishers flush once per UPDATE — and so
// the convergence span's geo-assignment stage does not overlap its
// forwarding stage. The assignment reads the policy current
// when it runs and takes no lock, so a caller may hold its own.
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

// Stats returns (routes processed, geolocation misses): every Assign
// outcome, and the no_geolocation one.
func (rr *GeoRR) Stats() (processed, misses uint64) {
	for i := range rr.outcomes {
		processed += rr.outcomes[i].Load()
	}
	return processed, rr.outcomes[ReasonNoGeolocation].Load()
}
