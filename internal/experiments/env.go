package experiments

import (
	"vns/internal/core"
	"vns/internal/geoip"
	"vns/internal/loss"
	"vns/internal/telemetry"
	"vns/internal/topo"
	"vns/internal/vns"
)

// Config scales an experiment environment.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// NumAS sizes the synthetic Internet (default 3000; tests pass less).
	NumAS int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20131209 // CoNEXT'13 opening day
	}
	if c.NumAS == 0 {
		c.NumAS = 3000
	}
	return c
}

// Env is the assembled world every experiment runs against: the
// synthetic Internet, the VNS deployment attached to it, the corrupted
// geolocation database, the geo route reflector, and the data plane.
type Env struct {
	Cfg     Config
	Topo    *topo.Topology
	Net     *vns.Network
	Peering *vns.Peering
	// TruthDB holds ground-truth prefix locations; DB is the
	// commercial-quality (corrupted) database the GeoRR queries.
	TruthDB *geoip.DB
	DB      *geoip.DB
	RR      *core.GeoRR
	DP      *vns.DataPlane
	// RNG is the root generator experiments fork from.
	RNG *loss.RNG
	// Telemetry aggregates every subsystem's metrics for this
	// environment: the GeoRR registers its families at construction,
	// the forwarding plane on first Forwarding call, and the health
	// components when they are built with it.
	Telemetry *telemetry.Registry

	fwd *vns.Forwarding // built lazily by Forwarding
}

// NewEnv builds an environment. It is deterministic in cfg.
func NewEnv(cfg Config) *Env {
	cfg = cfg.withDefaults()
	e := &Env{Cfg: cfg, RNG: loss.NewRNG(cfg.Seed), Telemetry: telemetry.New()}

	e.Topo = topo.Generate(topo.GenConfig{Seed: cfg.Seed, NumAS: cfg.NumAS})
	e.Net = vns.NewNetwork()
	e.Peering = vns.Connect(e.Net, e.Topo, cfg.Seed)

	e.TruthDB = e.geoDB(nil)
	e.DB = e.geoDB(geoip.NewCorruptor(e.RNG.Fork(0xDB)))
	e.RR = e.newReflector(core.Config{DB: e.DB, Telemetry: e.Telemetry})
	e.DP = vns.NewDataPlane(e.Peering, cfg.Seed^0xDA7A)
	return e
}

// geoDB builds a GeoIP database over every prefix of the topology:
// ground truth when corr is nil, else each record through corr.
func (e *Env) geoDB(corr *geoip.Corruptor) *geoip.DB {
	db := geoip.New()
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		rec := geoip.Record{Prefix: pi.Prefix, Pos: pi.Loc, Country: pi.Country, Region: pi.Region}
		if corr != nil {
			rec = corr.Apply(rec)
		}
		if err := db.Insert(rec); err != nil {
			panic(err)
		}
	}
	return db
}

// newReflector builds a GeoRR over cfg with every egress router of the
// deployment registered at its PoP.
func (e *Env) newReflector(cfg core.Config) *core.GeoRR {
	rr := core.New(cfg)
	for _, p := range e.Net.PoPs {
		for _, r := range p.Routers {
			rr.AddEgress(core.Egress{ID: r, Pos: p.Place.Pos, PoP: p.Code})
		}
	}
	return rr
}

// GeoEgressPoP returns the egress PoP geo-based routing selects for a
// prefix, or nil when the destination is unreachable.
func (e *Env) GeoEgressPoP(pi *topo.PrefixInfo) *vns.PoP { return e.geoEgress(e.RR, pi) }

// geoEgress is GeoEgressPoP under the decisions of the given reflector.
func (e *Env) geoEgress(rr *core.GeoRR, pi *topo.PrefixInfo) *vns.PoP {
	cands := e.Peering.Candidates(pi.Origin)
	best, ok := e.Peering.SelectGeo(rr, e.Net.PoP("LON"), cands, pi.Prefix)
	if !ok {
		return nil
	}
	return best.Session.PoP
}

// DelayBestPoP returns the PoP whose immediate exit (DataPlane.ExternalRTT)
// reaches the prefix in the least RTT, and that RTT: the first PoP in
// id order on a tie, nil when no PoP reaches the prefix.
func (e *Env) DelayBestPoP(pi *topo.PrefixInfo) (*vns.PoP, float64) {
	var best *vns.PoP
	bestRTT := 0.0
	for _, p := range e.Net.PoPs {
		if rtt, ok := e.DP.ExternalRTT(p, pi); ok && (best == nil || rtt < bestRTT) {
			best, bestRTT = p, rtt
		}
	}
	return best, bestRTT
}

// Forwarding compiles the per-PoP forwarding plane (internal/fib) over
// this environment's reflector and peering, built once and cached:
// engines stay subscribed to the reflector, so later management
// overrides keep the compiled tables current.
func (e *Env) Forwarding(cfg vns.ForwardingConfig) *vns.Forwarding {
	if e.fwd == nil {
		if cfg.Telemetry == nil {
			cfg.Telemetry = e.Telemetry
		}
		e.fwd = vns.NewForwarding(e.Peering, e.RR, cfg)
	}
	return e.fwd
}
