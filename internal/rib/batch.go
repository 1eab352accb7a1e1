package rib

import (
	"net/netip"
	"sort"

	"vns/internal/detsort"
)

// This file implements batched UPDATE ingestion: a set of route
// transitions lands as one unit, churn inside the batch is coalesced
// per (prefix, peer) before any selection runs, and the decision
// process reruns exactly once per touched prefix. At Internet scale
// the per-UPDATE path (mutate → reselect → notify) is dominated by
// reselection and downstream fan-out, and real UPDATE streams arrive
// bursty: a session reset replays hundreds of thousands of routes,
// convergence events flap the same prefixes repeatedly. Batching turns
// those bursts into one reselect per prefix and one sorted changed-set
// for the FIB, which is also what makes sharding (ShardedTable)
// worthwhile — shards process disjoint prefix ranges of a batch in
// parallel and their sorted changed-sets concatenate.

// Op is one route transition in a batch: an announce (or implicit
// replacement) when Route is non-nil, a withdrawal otherwise. The key
// identifying the candidate slot is (Prefix, PeerID, PeerAddr).
type Op struct {
	Prefix   netip.Prefix
	PeerID   netip.Addr
	PeerAddr netip.Addr
	// Route is the announced route (its Prefix/PeerID/PeerAddr must
	// match the key fields); nil marks a withdrawal.
	Route *Route
}

// Announce builds an announce op from a route.
func Announce(r *Route) Op {
	return Op{Prefix: r.Prefix, PeerID: r.PeerID, PeerAddr: r.PeerAddr, Route: r}
}

// WithdrawOp builds a withdrawal op.
func WithdrawOp(prefix netip.Prefix, peerID, peerAddr netip.Addr) Op {
	return Op{Prefix: prefix, PeerID: peerID, PeerAddr: peerAddr}
}

// opKey identifies the candidate slot an op targets; later ops on the
// same slot supersede earlier ones within a batch.
type opKey struct {
	prefix   netip.Prefix
	peerID   netip.Addr
	peerAddr netip.Addr
}

// ApplyBatch applies a batch of transitions as one unit and returns the
// sorted (detsort.PrefixCompare order) prefixes whose best path changed
// by value. Within the batch, ops on the same (prefix, peer) slot
// coalesce last-writer-wins — an announce followed by a withdrawal of
// the same route in one batch applies only the withdrawal, exactly the
// state sequential application would reach, minus the intermediate
// reselects. Selection reruns once per touched prefix after all
// mutations land, so a prefix flapped n times in a batch costs one
// decision-process run, not n.
func (t *table) ApplyBatch(ops []Op) []netip.Prefix {
	if len(ops) == 0 {
		return nil
	}
	// Coalesce: only the last op per slot survives.
	last := make(map[opKey]int, len(ops))
	for i, op := range ops {
		last[opKey{op.Prefix, op.PeerID, op.PeerAddr}] = i
	}
	touched := make(map[netip.Prefix]struct{}, len(last))
	for i, op := range ops {
		if last[opKey{op.Prefix, op.PeerID, op.PeerAddr}] != i {
			continue
		}
		if op.Route != nil {
			e := t.entries[op.Prefix]
			if e == nil {
				e = &entry{}
				t.entries[op.Prefix] = e
			}
			e.upsert(op.Route)
			touched[op.Prefix] = struct{}{}
			if m := t.metrics; m != nil {
				m.Upserts.Inc()
			}
		} else {
			e := t.entries[op.Prefix]
			if e == nil || !e.remove(op.PeerID, op.PeerAddr) {
				continue
			}
			touched[op.Prefix] = struct{}{}
			if m := t.metrics; m != nil {
				m.Withdraws.Inc()
			}
		}
	}
	changed := make([]netip.Prefix, 0, len(touched))
	//vnslint:maprange per-prefix reselects are independent and changed is sorted below; order cannot escape
	for p := range touched {
		e := t.entries[p]
		if len(e.routes) == 0 {
			if e.best != nil {
				changed = append(changed, p)
			}
			delete(t.entries, p)
			continue
		}
		if e.reselect() {
			changed = append(changed, p)
		}
		if m := t.metrics; m != nil {
			m.Reselects.Inc()
		}
	}
	sort.Slice(changed, func(i, j int) bool {
		return detsort.PrefixCompare(changed[i], changed[j]) < 0
	})
	if m := t.metrics; m != nil {
		m.BestChanges.Add(uint64(len(changed)))
		m.Prefixes.Set(float64(len(t.entries)))
	}
	return changed
}
