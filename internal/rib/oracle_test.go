package rib

import (
	"net/netip"
	"slices"
	"testing"

	"vns/internal/detsort"
)

// This file holds the test-side oracles the batched Loc-RIB is
// differentially proven against: the op-at-a-time walk (mutate one
// candidate, reselect, report) and the linear-scan longest-prefix match.
// Neither has a production caller; they are the simplest statement of
// what ApplyBatch and a compiled lookup must agree with.

// Upsert installs or replaces the candidate from r's peer for r's
// prefix, reruns selection, and reports whether the best path changed.
func (t *Table) Upsert(r *Route) (bestChanged bool) {
	e := t.entries[r.Prefix]
	if e == nil {
		e = &entry{}
		t.entries[r.Prefix] = e
	}
	e.upsert(r)
	return e.reselect()
}

// Withdraw removes the candidate learned from the given peer and reports
// whether the best path changed. Removing the last candidate deletes the
// prefix.
func (t *Table) Withdraw(prefix netip.Prefix, peerID, peerAddr netip.Addr) (bestChanged bool) {
	e := t.entries[prefix]
	if e == nil || !e.remove(peerID, peerAddr) {
		return false
	}
	if len(e.routes) == 0 {
		delete(t.entries, prefix)
		return e.best != nil
	}
	return e.reselect()
}

// Lookup returns the best route of the longest prefix containing addr,
// or nil when no installed prefix covers it, by scanning every entry.
// Two distinct prefixes of equal length cannot both contain addr, so the
// strict > comparison admits exactly one winner in any iteration order.
func (t *Table) Lookup(addr netip.Addr) *Route {
	addr = addr.Unmap()
	var best *Route
	bestBits := -1
	for p, e := range t.entries {
		if e.best != nil && p.Contains(addr) && p.Bits() > bestBits {
			best, bestBits = e.best, p.Bits()
		}
	}
	return best
}

// applySequential feeds ops to the oracle one at a time and returns the
// sorted prefixes whose best differs by value from before the batch —
// the changed set ApplyBatch must report.
func applySequential(t *Table, ops []Op) []netip.Prefix {
	before := make(map[netip.Prefix]*Route)
	for _, op := range ops {
		if _, seen := before[op.Prefix]; !seen {
			before[op.Prefix] = t.Best(op.Prefix)
		}
		if op.Route != nil {
			t.Upsert(op.Route)
		} else {
			t.Withdraw(op.Prefix, op.PeerID, op.PeerAddr)
		}
	}
	var changed []netip.Prefix
	for p, old := range before {
		if !t.Best(p).Equal(old) {
			changed = append(changed, p)
		}
	}
	slices.SortFunc(changed, detsort.PrefixCompare)
	return changed
}

// TestOneShardMatchesSequentialOracle is the table's differential proof
// on the hand-written batch fixtures: ApplyBatch must report exactly the
// oracle's changed sets and reach its state, candidate order included.
// TestApplyBatchMatchesSequential does the same on random batches.
func TestOneShardMatchesSequentialOracle(t *testing.T) {
	for _, tc := range batchCases() {
		batched, oracle := NewTable(), NewTable()
		batched.ApplyBatch(batchSetup())
		applySequential(oracle, batchSetup())
		got, want := batched.ApplyBatch(tc.ops()), applySequential(oracle, tc.ops())
		if !slices.Equal(got, want) || !slices.Equal(got, tc.wantChanged) {
			t.Errorf("%s: changed %v, oracle %v, fixture %v", tc.name, got, want, tc.wantChanged)
		}
		assertTablesEqual(t, batched, oracle)
	}
}
