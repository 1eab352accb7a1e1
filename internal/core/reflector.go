package core

import (
	"net/netip"
	"slices"

	"vns/internal/bgp"
	"vns/internal/detsort"
	"vns/internal/rib"
	"vns/internal/telemetry"
)

// Reflector is the modified Quagga reflector's per-UPDATE rule with no
// transport: the GeoRR over one Loc-RIB (rib.Table), which every route
// enters through Ingest — from RRServer's sessions and from the
// scenario harness. What Ingest and Purge return is what every other
// peer is sent. Like the table it has one writer: it takes no lock, and
// the caller serializes every call.
type Reflector struct {
	rr        *GeoRR
	table     *rib.Table
	clusterID netip.Addr             // the RFC 4456 cluster ID: the router ID
	conv      *telemetry.Convergence // nil: no convergence events
}

// NewReflector returns a reflector over an empty Loc-RIB whose decision
// churn counts into reg (nil: uncounted) and whose UPDATEs each open one
// convergence event in conv (nil: none).
func NewReflector(rr *GeoRR, clusterID netip.Addr, reg *telemetry.Registry, conv *telemetry.Convergence) *Reflector {
	r := &Reflector{rr: rr, table: rib.NewTable(), clusterID: clusterID, conv: conv}
	r.table.SetMetrics(rib.NewMetrics(reg))
	return r
}

// Ingest applies one UPDATE from an egress router to the Loc-RIB as one
// ApplyBatch (withdraw ops first; the batch keeps each prefix's ops in
// that order, so a withdraw+announce of the same prefix resolves as
// sequential RFC 4271 processing would),
// notifies the forwarding plane once, and returns the reflections: the
// withdrawals that moved a best path, then one single-prefix
// announcement per NLRI (each prefix geolocates on its own) with its
// geo local-pref and RFC 4456 attributes.
func (r *Reflector) Ingest(from netip.Addr, u bgp.Update) []bgp.Update {
	// Reflection loop check (RFC 4456 §8).
	if u.Attrs.HasClusterLoop(r.clusterID) {
		return nil
	}
	// One convergence event per UPDATE, begun by the one writer so the
	// active event matches the batch the publishers are flushing for.
	ev := r.conv.Begin(telemetry.ConvUpdate)

	mark := ev.Mark()
	ops := make([]rib.Op, 0, len(u.Withdrawn)+len(u.NLRI))
	for _, w := range u.Withdrawn {
		ops = append(ops, rib.WithdrawOp(w, from, from))
	}
	mark = ev.Stage(telemetry.StageIngest, mark)

	geoOuts := make([]bgp.Update, 0, len(u.NLRI))
	for i, p := range u.NLRI {
		// The full slice expression caps the reflection's NLRI, so an
		// append to it cannot overwrite the caller's next prefix.
		single := bgp.Update{Attrs: u.Attrs, NLRI: u.NLRI[i : i+1 : i+1]}
		out := r.rr.ProcessUpdateQuiet(from, single)
		out.Attrs = reflectAttrs(out.Attrs, from, r.clusterID)
		ops = append(ops, rib.Announce(&rib.Route{
			Prefix:   p,
			Attrs:    out.Attrs,
			PeerAS:   u.Attrs.FirstAS(),
			PeerID:   from,
			PeerAddr: from,
		}))
		geoOuts = append(geoOuts, out)
	}
	mark = ev.Stage(telemetry.StageGeoRR, mark)

	changed := r.table.ApplyBatch(ops)
	mark = ev.Stage(telemetry.StageSelect, mark)

	// One notification for the whole UPDATE (ProcessUpdateQuiet deferred
	// it), so each PoP's publisher flushes once. Compile time inside the
	// flushes is attributed to this event and excluded here.
	r.rr.NotifyChanged(append(slices.Clip(u.Withdrawn), u.NLRI...)...)
	ev.StageExclusive(telemetry.StageForwarding, mark)
	ev.Finish()

	// Building and sending the reflections is propagation, not
	// convergence. Only a withdrawal that moved the best path
	// propagates: an announce of the same prefix in this UPDATE
	// supersedes it in the batch, and its reflection carries the news.
	var outs []bgp.Update
	for _, w := range u.Withdrawn {
		if _, moved := slices.BinarySearchFunc(changed, w, detsort.PrefixCompare); moved {
			outs = append(outs, bgp.Update{Withdrawn: []netip.Prefix{w}})
		}
	}
	if outs == nil {
		return geoOuts
	}
	return append(outs, geoOuts...)
}

// Purge withdraws every route learned from peer, whose session ended,
// and returns the withdrawals packed, in address order.
func (r *Reflector) Purge(peer netip.Addr) []bgp.Update {
	var ops []rib.Op
	var gone []netip.Prefix
	for _, p := range r.table.Prefixes() {
		if slices.ContainsFunc(r.table.Candidates(p), func(rt *rib.Route) bool { return rt.PeerID == peer }) {
			ops = append(ops, rib.WithdrawOp(p, peer, peer))
			gone = append(gone, p)
		}
	}
	if len(gone) == 0 {
		return nil
	}
	r.table.ApplyBatch(ops)
	return bgp.PackWithdrawals(gone)
}

// HasCover reports whether the Loc-RIB holds a strictly less-specific
// route covering sub: the cover check a static more-specific needs
// (GeoRR.AddStatic).
func (r *Reflector) HasCover(sub netip.Prefix) bool {
	return slices.ContainsFunc(r.table.Prefixes(), func(cp netip.Prefix) bool {
		return cp.Contains(sub.Addr()) && cp.Bits() < sub.Bits()
	})
}

// Best returns the current best route for a prefix.
func (r *Reflector) Best(prefix netip.Prefix) *rib.Route { return r.table.Best(prefix) }

// Len returns the number of prefixes in the Loc-RIB.
func (r *Reflector) Len() int { return r.table.Len() }

// reflectAttrs is the RFC 4456 attribute rule: stamp ORIGINATOR_ID with
// the originating router unless already set, and prepend the reflector's
// cluster ID to the CLUSTER_LIST — the ID Ingest's loop check drops
// routes on.
func reflectAttrs(attrs bgp.Attrs, originator, clusterID netip.Addr) bgp.Attrs {
	if !attrs.OriginatorID.IsValid() {
		attrs.OriginatorID = originator
	}
	attrs.ClusterList = append([]netip.Addr{clusterID}, attrs.ClusterList...)
	return attrs
}
