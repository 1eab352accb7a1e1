package main

import (
	"math/rand/v2"
	"net/netip"

	"vns/internal/bgp"
	"vns/internal/experiments"
	"vns/internal/fib"
	"vns/internal/geo"
	"vns/internal/geoip"
	"vns/internal/netsim"
	"vns/internal/rib"
	"vns/internal/telemetry"
	"vns/internal/topo"
)

// probeResult is the cost of one call into each layer's public
// functions, in nanoseconds of span self time unless the name says
// otherwise, taken with this deployment's own routes and addresses.
type probeResult struct {
	marshalNs, unmarshalNs, unmarshalPackedNs float64 // bgp; packed is per prefix
	geoipInsertNs, geoipLookupNs, distanceNs  float64
	assignNs, processUpdateNs, forceExitNs    float64 // core
	ribApplyNs, ribApplyBulkNs                float64 // per op
	ribChangedFrac                            float64 // changed set / ops
	fanoutNs                                  float64 // vns, per prefix
	deltaNs, compileMs                        float64 // fib
	lookupNs, lookupHitFrac                   float64
	applyNoRouteMs                            float64 // health
	topoGenerateMs                            float64
	flowStepNs, flowPktsPerS, flowConserved   float64
	transitNs, counterAddNs, renderMs         float64

	reflections float64 // sessions one UPDATE is reflected to
	pops        float64 // FIBs one override is verified in
}

const (
	probeUpdates   = 2000
	probeOverrides = 200
	probeLookups   = 2 << 20
	probeTight     = 1 << 20 // iterations of a sub-microsecond call under one span
)

// probes replays the workload inputs through each layer on its own:
// the UPDATE path stage by stage under one parent span per UPDATE, then
// the calls that do not sit on it. It runs after the measured passes and
// leaves the deployment's routing state as it found it.
func probes(d *deployment, rng *rand.Rand, tr *tracer) probeResult {
	first := tr.len()
	var p probeResult
	p.reflections = float64(len(d.routers) - 1)
	p.pops = float64(len(d.engines))
	driver, mine := d.busiest()

	// A harness-owned Loc-RIB loaded, one whole-router batch at a time,
	// with the routes the reflector's own table holds.
	table := rib.NewSharded(0)
	route := func(router netip.Addr, u bgp.Update) *rib.Route {
		return &rib.Route{Prefix: u.NLRI[0], Attrs: u.Attrs, PeerAS: u.Attrs.FirstAS(), PeerID: router, PeerAddr: router}
	}
	for _, r := range d.routers {
		var ops []rib.Op
		prefixes := 0
		for _, u := range d.tables[r] {
			wire, err := bgp.Marshal(u)
			if err != nil {
				continue
			}
			sp := tr.begin("bgp.unmarshal_packed", 0, 0)
			_, _ = bgp.Unmarshal(wire)
			tr.end(sp, len(u.NLRI))
			prefixes += len(u.NLRI)
			for _, pfx := range u.NLRI {
				out := d.env.RR.ProcessUpdateQuiet(r, bgp.Update{Attrs: u.Attrs, NLRI: []netip.Prefix{pfx}})
				ops = append(ops, rib.Announce(route(r, out)))
			}
		}
		sp := tr.begin("rib.apply_bulk", 0, 0)
		table.ApplyBatch(ops)
		tr.end(sp, prefixes)
	}

	// The per-UPDATE path, as RRServer.handleUpdate walks it.
	changed := 0
	for k := 0; k < probeUpdates; k++ {
		op := uint64(k + 1)
		u := d.announcement(driver, mine[rng.IntN(len(mine))])
		u.Attrs.MED, u.Attrs.HasMED = uint32(k+1), true
		wire, err := bgp.Marshal(u)
		if err != nil {
			continue
		}
		root := tr.begin("probe.update", 0, op)
		sp := tr.begin("bgp.unmarshal", root, op)
		_, _ = bgp.Unmarshal(wire)
		tr.end(sp, 1)
		sp = tr.begin("core.process_update", root, op)
		out := d.env.RR.ProcessUpdateQuiet(driver, u)
		tr.end(sp, 1)
		sp = tr.begin("rib.apply", root, op)
		changed += len(table.ApplyBatch([]rib.Op{rib.Announce(route(driver, out))}))
		tr.end(sp, 1)
		sp = tr.begin("vns.fanout", root, op)
		d.fwd.InvalidateBatch(u.NLRI)
		tr.end(sp, 1)
		sp = tr.begin("bgp.marshal", root, op)
		for r := 0; r < len(d.routers)-1; r++ {
			_, _ = bgp.Marshal(out)
		}
		tr.end(sp, len(d.routers)-1)
		tr.end(root, 1)
	}
	p.ribChangedFrac = float64(changed) / probeUpdates

	// GeoRR assignment and what it is made of.
	var records []geoip.Record
	d.env.DB.Walk(func(r geoip.Record) bool { records = append(records, r); return true })
	fresh := geoip.New()
	sp := tr.begin("geoip.insert", 0, 0)
	for _, r := range records {
		_ = fresh.Insert(r)
	}
	tr.end(sp, len(records))
	sp = tr.begin("geoip.lookup", 0, 0)
	for k := 0; k < probeTight; k++ {
		_, _ = d.env.DB.LookupPrefix(d.prefixes[k%len(d.prefixes)])
	}
	tr.end(sp, probeTight)
	sink := 0.0
	sp = tr.begin("geo.distance", 0, 0)
	for k := 0; k < probeTight; k++ {
		sink += geo.DistanceKm(records[k%len(records)].Pos, records[(k+7)%len(records)].Pos)
	}
	tr.end(sp, probeTight)
	sp = tr.begin("core.assign", 0, 0)
	for k := 0; k < probeTight/4; k++ {
		sink += d.env.RR.Assign(driver, d.prefixes[k%len(d.prefixes)]).DistanceKm
	}
	tr.end(sp, probeTight/4)

	// FIB compile, delta and lookup on a harness-owned table holding
	// one PoP's entry set.
	entries := make([]fib.Entry, 0, len(d.prefixes))
	for _, pfx := range d.prefixes {
		if nh, ok := d.engines[0].Lookup(pfx.Addr()); ok {
			entries = append(entries, fib.Entry{Prefix: pfx, NextHop: nh})
		}
	}
	var own *fib.FIB
	for k := 0; k < 5; k++ {
		sp = tr.begin("fib.compile", 0, 0)
		own = fib.Compile(entries, uint64(k+1))
		tr.end(sp, 1)
	}
	addrs, _ := d.lookupSet(rng)
	hits := 0
	sp = tr.begin("fib.lookup", 0, 0)
	for k := 0; k < probeLookups; k++ {
		if _, ok := own.Lookup(addrs[k&(lookupAddrs-1)]); ok {
			hits++
		}
	}
	tr.end(sp, probeLookups)
	p.lookupHitFrac = float64(hits) / probeLookups
	for k := 0; k < probeUpdates; k++ {
		e := entries[rng.IntN(len(entries))]
		other := entries[rng.IntN(len(entries))].NextHop
		sp = tr.begin("fib.delta", 0, 0)
		own = own.Delta([]fib.Patch{{Prefix: e.Prefix, Install: true, NextHop: other, Existed: true}}, own.Generation()+1)
		tr.end(sp, 1)
	}

	// Management override and the IGP-only link transition.
	for k := 0; k < probeOverrides; k++ {
		o := d.pickOverride(rng)
		sp = tr.begin("core.force_exit", 0, 0)
		_ = d.env.RR.ForceExit(d.prefixes[o.i], o.to)
		tr.end(sp, 1)
		sp = tr.begin("core.force_exit", 0, 0)
		d.env.RR.Unforce(d.prefixes[o.i])
		tr.end(sp, 1)
	}
	lon, ash := d.env.Net.PoP("LON"), d.env.Net.PoP("ASH")
	for _, up := range [2]bool{false, true} {
		sp = tr.begin("health.apply_noroute", 0, 0)
		d.ctl.Apply(lon, ash, up)
		tr.end(sp, 1)
	}

	// Layers off the routing path.
	sp = tr.begin("topo.generate", 0, 0)
	topo.Generate(topo.GenConfig{Seed: worldSeed, NumAS: numAS})
	tr.end(sp, 1)
	flows := experiments.FlowStudy(experiments.FlowsConfig{Flows: 100_000, DurSec: 20})
	epochs := flows.Cfg.DurSec / flows.Cfg.EpochSec
	p.flowStepNs = flows.WallMs * 1e6 / (float64(flows.Cfg.Flows) * epochs)
	p.flowPktsPerS = float64(flows.Totals.Scheduled) / (flows.WallMs / 1e3)
	if flows.ConservationErr == nil {
		p.flowConserved = 1
	}
	link := netsim.NewLink("probe", 10, 1000, nil, nil)
	sp = tr.begin("netsim.transit_aggregate", 0, 0)
	for k := 0; k < probeTight; k++ {
		sink += float64(link.TransitAggregate(netsim.Time(k)*1e-4, 10, 1200).Delivered)
	}
	tr.end(sp, probeTight)
	counter := telemetry.New().Counter("vnsbench_probe_total", "probe")
	sp = tr.begin("telemetry.counter_add", 0, 0)
	for k := 0; k < probeTight; k++ {
		counter.Add(1)
	}
	tr.end(sp, probeTight)
	for k := 0; k < 5; k++ {
		sp = tr.begin("telemetry.render", 0, 0)
		sink += float64(len(d.env.Telemetry.Render()))
		tr.end(sp, 1)
	}
	_ = sink

	tr.mu.Lock()
	self := selfTimes(tr.spans[first:])
	tr.mu.Unlock()
	p.marshalNs = self["bgp.marshal"].perCallNs()
	p.unmarshalNs = self["bgp.unmarshal"].perCallNs()
	p.unmarshalPackedNs = self["bgp.unmarshal_packed"].perCallNs()
	p.geoipInsertNs = self["geoip.insert"].perCallNs()
	p.geoipLookupNs = self["geoip.lookup"].perCallNs()
	p.distanceNs = self["geo.distance"].perCallNs()
	p.assignNs = self["core.assign"].perCallNs()
	p.processUpdateNs = self["core.process_update"].perCallNs()
	p.forceExitNs = self["core.force_exit"].perCallNs()
	p.ribApplyNs = self["rib.apply"].perCallNs()
	p.ribApplyBulkNs = self["rib.apply_bulk"].perCallNs()
	p.fanoutNs = self["vns.fanout"].perCallNs()
	p.deltaNs = self["fib.delta"].perCallNs()
	p.compileMs = self["fib.compile"].perCallNs() / 1e6
	p.lookupNs = self["fib.lookup"].perCallNs()
	p.applyNoRouteMs = self["health.apply_noroute"].perCallNs() / 1e6
	p.topoGenerateMs = self["topo.generate"].perCallNs() / 1e6
	p.transitNs = self["netsim.transit_aggregate"].perCallNs()
	p.counterAddNs = self["telemetry.counter_add"].perCallNs()
	p.renderMs = self["telemetry.render"].perCallNs() / 1e6
	return p
}
