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

	e.TruthDB = geoip.New()
	e.DB = geoip.New()
	corr := geoip.NewCorruptor(e.RNG.Fork(0xDB))
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		truth := geoip.Record{Prefix: pi.Prefix, Pos: pi.Loc, Country: pi.Country, Region: pi.Region}
		if err := e.TruthDB.Insert(truth); err != nil {
			panic(err)
		}
		if err := e.DB.Insert(corr.Apply(truth)); err != nil {
			panic(err)
		}
	}

	e.RR = core.New(core.Config{DB: e.DB, Telemetry: e.Telemetry})
	for _, p := range e.Net.PoPs {
		for _, r := range p.Routers {
			e.RR.AddEgress(core.Egress{ID: r, Pos: p.Place.Pos, PoP: p.Code})
		}
	}
	e.DP = vns.NewDataPlane(e.Peering, cfg.Seed^0xDA7A)
	return e
}

// GeoEgressPoP returns the egress PoP geo-based routing selects for a
// prefix, or nil when the destination is unreachable.
func (e *Env) GeoEgressPoP(pi *topo.PrefixInfo) *vns.PoP {
	cands := e.Peering.Candidates(pi.Origin)
	best, ok := e.Peering.SelectGeo(e.RR, e.Net.PoP("LON"), cands, pi.Prefix)
	if !ok {
		return nil
	}
	return best.Session.PoP
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
