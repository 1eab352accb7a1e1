package rib

import "net/netip"

// This file implements batched UPDATE ingestion: a set of route
// transitions lands as one unit, sorted by prefix, and the decision
// process reruns exactly once per touched prefix. At Internet scale
// the per-UPDATE path (mutate → reselect → notify) is dominated by
// reselection and downstream fan-out, and real UPDATE streams arrive
// bursty: a session reset replays hundreds of thousands of routes,
// convergence events flap the same prefixes repeatedly. Batching turns
// those bursts into one reselect per prefix and one sorted changed-set
// for the FIB, which is also what makes sharding (ShardedTable)
// worthwhile — shards walk disjoint prefix ranges of the sorted batch
// in parallel and their sorted changed-sets concatenate.

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

// apply walks one shard's run of a batch, which must be sorted by
// prefix with each prefix's ops in arrival order, and returns the
// prefixes whose best path changed by value, in the same order. It
// applies every op of a prefix, so a withdraw-then-announce of one
// slot resolves as RFC 4271's op-at-a-time processing would, then
// reselects once if any op touched a candidate: a prefix flapped n
// times in a batch costs one decision-process run, not n.
func (t *table) apply(ops []Op) []netip.Prefix {
	var changed []netip.Prefix
	touched := false
	for i, op := range ops {
		e := t.entries[op.Prefix]
		if op.Route != nil {
			if e == nil {
				e = &entry{}
				t.entries[op.Prefix] = e
			}
			e.upsert(op.Route)
			touched = true
			if m := t.metrics; m != nil {
				m.Upserts.Inc()
			}
		} else if e != nil && e.remove(op.PeerID, op.PeerAddr) {
			touched = true
			if m := t.metrics; m != nil {
				m.Withdraws.Inc()
			}
		}
		// Reselect at the end of the prefix's run, if it touched a
		// candidate.
		if !touched || i+1 < len(ops) && ops[i+1].Prefix == op.Prefix {
			continue
		}
		touched = false
		if len(e.routes) == 0 {
			if e.best != nil {
				changed = append(changed, op.Prefix)
			}
			delete(t.entries, op.Prefix)
			continue
		}
		if e.reselect() {
			changed = append(changed, op.Prefix)
		}
		if m := t.metrics; m != nil {
			m.Reselects.Inc()
		}
	}
	if m := t.metrics; m != nil {
		m.BestChanges.Add(uint64(len(changed)))
	}
	return changed
}
