package fib

import (
	"maps"
	"net/netip"
	"slices"
	"time"
)

// This file implements delta compilation: patching a published trie
// with a small set of prefix transitions instead of rebuilding it from
// scratch. A full compile is O(table); at Internet scale (~400k
// prefixes) that is milliseconds of work and megabytes of garbage per
// churn event, while the steady-state UPDATE stream touches a handful
// of prefixes at a time. Delta patches a fork of the published trie
// (lpm.Trie.Fork), which copies only the stride nodes the patches
// touch, so the previously published *FIB stays immutable and readers
// of either generation remain wait-free. The next-hop table is shared
// with the parent generation too, and copied only when a patch brings a
// next hop it does not hold: a patch costs the nodes it copies and one
// FIB header, not a pass over the table. A withdrawal names the
// withdrawn prefix's covering route, because only the owner of the
// authoritative entry set (the Publisher) can name the next-longest
// match once the prefix is gone.

// Patch is one prefix transition for Delta: an install (announce or
// next-hop change) when Install is true, a withdrawal otherwise.
type Patch struct {
	Prefix netip.Prefix
	// Install distinguishes announce/change (true) from withdraw.
	Install bool
	// NextHop is the new forwarding action (installs only).
	NextHop NextHop
	// Existed reports whether the prefix was installed in the previous
	// generation; the caller knows (it owns the entry set), and Delta
	// needs it only to keep Size() exact — a fully shadowed prefix
	// leaves no trace in the trie to detect it by.
	Existed bool
	// Cover is the forwarding action of the longest installed prefix
	// strictly shorter than Prefix that contains it (withdrawals only;
	// the zero NextHop with CoverBits 0 means no cover, i.e. the slots
	// revert to no-route).
	Cover NextHop
	// CoverBits is the covering prefix's length.
	CoverBits int
}

// delta tracks one in-progress patch session: the FIB being built and
// whether its next-hop table is still the parent's.
type delta struct {
	f        *FIB
	sharedNH bool
}

// Delta returns a new FIB equal to f with the given patches applied,
// tagged with the given generation. The receiver is not modified: every
// touched node is cloned (copy-on-write), untouched subtrees and the
// next-hop table are shared between generations, the table being
// copied only if a patch brings a next hop it does not hold. Cost is
// proportional to the patched address space, not the table size.
// Prefixes are normalized as Compile does them; non-IPv4 prefixes and
// no-op withdrawals are ignored. Any number of Deltas may be taken off
// one FIB, each independent of the others.
//
// Correctness contract (differentially fuzzed by FuzzDeltaCompile):
// for any entry set E and patch batch B, Delta(E)(B) is
// lookup-equivalent to Compile(E after B).
func (f *FIB) Delta(patches []Patch, gen uint64) *FIB {
	start := time.Now() //vnslint:wallclock measures real patch cost, not simulated time

	nf := &FIB{
		trie:     f.trie.Fork(),
		nexthops: f.nexthops,
		nhIndex:  f.nhIndex,
		gen:      gen,
		prefixes: f.prefixes,
		deltas:   f.deltas + 1,
	}
	d := delta{f: nf, sharedNH: true}

	for _, p := range patches {
		pfx, ok := normalize(p.Prefix)
		if !ok {
			continue
		}
		if p.Install {
			if !p.NextHop.IsValid() {
				continue
			}
			nf.trie.Insert(pfx, d.intern(p.NextHop))
			if !p.Existed {
				nf.prefixes++
			}
		} else {
			if !p.Existed {
				continue
			}
			coverIdx := int32(0)
			if p.Cover.IsValid() {
				coverIdx = d.intern(p.Cover)
			}
			nf.trie.Withdraw(pfx, coverIdx, p.CoverBits)
			nf.prefixes--
		}
	}

	nf.compile = time.Since(start) //vnslint:wallclock measures real patch cost, not simulated time
	return nf
}

// Deltas returns the number of delta generations applied since the last
// full compile (0 for a freshly compiled table).
func (f *FIB) Deltas() int { return f.deltas }

// intern returns nh's 1-based index in the new generation's next-hop
// table. The table starts out as the parent's; the first next hop it
// lacks copies it (and its index) before the append, so the parent's
// table, and every other generation sharing it, is never written.
func (d *delta) intern(nh NextHop) int32 {
	if idx, ok := d.f.nhIndex[nh]; ok {
		return idx
	}
	if d.sharedNH {
		d.f.nexthops = slices.Clone(d.f.nexthops)
		d.f.nhIndex = maps.Clone(d.f.nhIndex)
		d.sharedNH = false
	}
	return d.f.internNextHop(nh)
}
