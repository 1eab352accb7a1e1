// Package rib implements BGP route storage and selection: routes with
// their learning context, the full RFC 4271 §9.1 decision process with
// the RFC 4456 tiebreak refinements, and the Loc-RIB, Table, which
// ingests batched route transitions on one goroutine, as Quagga's bgpd
// does. The reflector (core.Reflector) and the soak study run it.
package rib

import (
	"fmt"
	"net/netip"

	"vns/internal/bgp"
	"vns/internal/detsort"
)

// DefaultLocalPref is the local preference assumed for routes that do
// not carry the attribute (RFC 4271 default practice, and the baseline
// the geo route reflector's values are "much higher" than).
const DefaultLocalPref = 100

// Route is one candidate path to a prefix together with the context it
// was learned in, which the decision process needs.
type Route struct {
	Prefix netip.Prefix
	Attrs  bgp.Attrs

	// EBGP reports whether the route was learned over an external
	// session.
	EBGP bool
	// PeerAS is the neighboring AS the route was learned from (0 for
	// locally originated routes).
	PeerAS uint16
	// PeerID is the BGP identifier of the advertising peer, the final
	// decision-process tiebreaker.
	PeerID netip.Addr
	// PeerAddr breaks ties between parallel sessions to the same router.
	PeerAddr netip.Addr
	// IGPMetric is the IGP distance to the route's NEXT_HOP, the
	// hot-potato tiebreaker.
	IGPMetric int
	// FromClient marks routes learned from a route-reflection client.
	FromClient bool
}

// LocalPref returns the effective local preference.
func (r *Route) LocalPref() uint32 {
	if r.Attrs.HasLocalPref {
		return r.Attrs.LocalPref
	}
	return DefaultLocalPref
}

// Equal reports whether two routes are identical by value: same prefix,
// learning context and attributes. Selection uses it to distinguish a
// genuinely changed best path from an attribute-identical
// re-announcement, which must not trigger re-advertisement or FIB
// churn. Both nil is true; one nil is false.
func (r *Route) Equal(o *Route) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Prefix == o.Prefix &&
		r.EBGP == o.EBGP &&
		r.PeerAS == o.PeerAS &&
		r.PeerID == o.PeerID &&
		r.PeerAddr == o.PeerAddr &&
		r.IGPMetric == o.IGPMetric &&
		r.FromClient == o.FromClient &&
		r.Attrs.Equal(o.Attrs)
}

func (r *Route) String() string {
	kind := "iBGP"
	if r.EBGP {
		kind = "eBGP"
	}
	return fmt.Sprintf("%v via AS%d (%s, lp=%d, igp=%d)", r.Prefix, r.PeerAS, kind, r.LocalPref(), r.IGPMetric)
}

// CompareAttrs is the decision process's steps 1–3, the ones a route's
// own attributes decide: highest LOCAL_PREF (DefaultLocalPref when the
// attribute is absent), then shortest AS path, then lowest ORIGIN. It
// reads nothing about where the route was learned or who compares it,
// so two routes rank the same here from every vantage, and Compare
// never reverses a nonzero answer. 0 means the later steps decide.
func CompareAttrs(a, b *Route) int {
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		if la > lb {
			return -1
		}
		return 1
	}
	if pa, pb := a.Attrs.ASPathLen(), b.Attrs.ASPathLen(); pa != pb {
		if pa < pb {
			return -1
		}
		return 1
	}
	if oa, ob := a.Attrs.Origin, b.Attrs.Origin; oa != ob {
		if oa < ob {
			return -1
		}
		return 1
	}
	return 0
}

// Compare implements the decision process: it returns a negative value
// if a is preferred over b, positive if b is preferred, and 0 only for
// routes indistinguishable at every step.
//
// Steps, in order (RFC 4271 §9.1.2.2 plus the RFC 4456 refinement):
//  1. highest LOCAL_PREF
//  2. shortest AS path
//  3. lowest ORIGIN
//  4. lowest MED, compared only between routes from the same
//     neighboring AS (missing MED treated as 0 per common default)
//  5. eBGP preferred over iBGP
//  6. lowest IGP metric to the NEXT_HOP (hot potato)
//  7. shortest CLUSTER_LIST (RFC 4456 §9)
//  8. lowest ORIGINATOR_ID / router ID
//  9. lowest peer address
//
// Steps 1–3 are CompareAttrs; the rest read the learning context.
func Compare(a, b *Route) int {
	if c := CompareAttrs(a, b); c != 0 {
		return c
	}
	if a.PeerAS == b.PeerAS {
		ma, mb := a.med(), b.med()
		if ma != mb {
			if ma < mb {
				return -1
			}
			return 1
		}
	}
	if a.EBGP != b.EBGP {
		if a.EBGP {
			return -1
		}
		return 1
	}
	if a.IGPMetric != b.IGPMetric {
		if a.IGPMetric < b.IGPMetric {
			return -1
		}
		return 1
	}
	if ca, cb := len(a.Attrs.ClusterList), len(b.Attrs.ClusterList); ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	ia, ib := a.tieBreakID(), b.tieBreakID()
	if ia != ib {
		if ia.Less(ib) {
			return -1
		}
		return 1
	}
	if a.PeerAddr != b.PeerAddr {
		if a.PeerAddr.Less(b.PeerAddr) {
			return -1
		}
		return 1
	}
	return 0
}

func (r *Route) med() uint32 {
	if r.Attrs.HasMED {
		return r.Attrs.MED
	}
	return 0
}

// tieBreakID returns the ORIGINATOR_ID when present, otherwise the peer
// router ID (RFC 4456 §9).
func (r *Route) tieBreakID() netip.Addr {
	if r.Attrs.OriginatorID.IsValid() {
		return r.Attrs.OriginatorID
	}
	return r.PeerID
}

// Best returns the preferred route among candidates, or nil for an empty
// set. Ties (Compare == 0) resolve to the earliest candidate, which
// makes selection deterministic for equal routes.
func Best(routes []*Route) *Route {
	var best *Route
	for _, r := range routes {
		if r == nil {
			continue
		}
		if best == nil || Compare(r, best) < 0 {
			best = r
		}
	}
	return best
}

// Table is the Loc-RIB: all candidate routes per prefix plus the
// current best path. It has one writer: concurrent ApplyBatch calls, or
// reads concurrent with a batch, need external synchronization
// (core.Reflector's caller serializes every call).
type Table struct {
	entries map[netip.Prefix]*entry
	metrics *Metrics
}

type entry struct {
	routes []*Route // one per (PeerID, PeerAddr)
	best   *Route
}

// NewTable returns an empty Loc-RIB.
func NewTable() *Table {
	return &Table{entries: make(map[netip.Prefix]*entry)}
}

// Kept for bench/vnsbench/probes.go, its only caller: whatever count it
// is passed, it returns NewTable(). ROADMAP item 17's rewrite of bench/
// deletes it.
func NewSharded(int) *Table { return NewTable() }

// SetMetrics attaches metrics (nil detaches); it is not safe to call
// concurrently with mutations.
func (t *Table) SetMetrics(m *Metrics) { t.metrics = m }

// Len returns the number of prefixes with at least one candidate.
func (t *Table) Len() int { return len(t.entries) }

// upsert installs or replaces the candidate from r's peer without
// rerunning selection; apply defers reselection until every op of a
// prefix's run has landed.
func (e *entry) upsert(r *Route) {
	for i, existing := range e.routes {
		if existing.PeerID == r.PeerID && existing.PeerAddr == r.PeerAddr {
			e.routes[i] = r
			return
		}
	}
	e.routes = append(e.routes, r)
}

// remove deletes the candidate learned from the given peer, reporting
// whether one existed. Like upsert it does not reselect.
func (e *entry) remove(peerID, peerAddr netip.Addr) bool {
	kept := e.routes[:0]
	removed := false
	for _, r := range e.routes {
		if r.PeerID == peerID && r.PeerAddr == peerAddr {
			removed = true
			continue
		}
		kept = append(kept, r)
	}
	e.routes = kept
	return removed
}

// reselect reruns selection and reports whether the best path changed
// *by value*: replacing a peer's route with an attribute-identical
// announcement yields a new *Route pointer but must not report a
// change, or every periodic re-announcement would trigger spurious
// re-advertisement and FIB recompiles downstream.
func (e *entry) reselect() bool {
	nb := Best(e.routes)
	changed := !nb.Equal(e.best)
	e.best = nb
	return changed
}

// Best returns the best route for prefix, or nil.
func (t *Table) Best(prefix netip.Prefix) *Route {
	if e := t.entries[prefix]; e != nil {
		return e.best
	}
	return nil
}

// Candidates returns all candidate routes for prefix.
func (t *Table) Candidates(prefix netip.Prefix) []*Route {
	if e := t.entries[prefix]; e != nil {
		out := make([]*Route, len(e.routes))
		copy(out, e.routes)
		return out
	}
	return nil
}

// Prefixes returns all prefixes in detsort.PrefixCompare order.
func (t *Table) Prefixes() []netip.Prefix {
	return detsort.KeysFunc(t.entries, detsort.PrefixCompare)
}
