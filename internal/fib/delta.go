package fib

import (
	"net/netip"
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
// of either generation remain wait-free. The row table is shared with
// the parent generation too, and copied only when a patch brings a next
// hop it does not hold: a patch costs the nodes it copies and one FIB
// header per column it moves, not a pass over the table. A withdrawal
// names the withdrawn prefix's covering route, because only the owner
// of the authoritative entry set (the Publisher's writer) can name the
// next-longest match once the prefix is gone. Delta is the one-column
// form, over Patches and the table's next-hop rows (hopRows); a plane's
// writer patches its shared trie the same way, over row ids
// (writer.patch).

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

// Delta returns a new single-column FIB equal to f with the given
// patches applied, tagged with the given generation. The receiver is
// not modified: every touched node is cloned (copy-on-write), untouched
// subtrees and the next-hop table are shared between generations, the
// table being copied only if a patch brings a next hop it does not
// hold. Cost is proportional to the patched address space, not the
// table size. Prefixes are normalized as Compile does them; non-IPv4
// prefixes and no-op withdrawals are ignored. Any number of Deltas may
// be taken off one FIB, each independent of the others. f must have
// one column (Compile's, Delta's, or a one-engine Publisher's); a
// multi-column plane is patched by its writer.
//
// Correctness contract (differentially fuzzed by FuzzDeltaCompile):
// for any entry set E and patch batch B, Delta(E)(B) is
// lookup-equivalent to Compile(E after B).
func (f *FIB) Delta(patches []Patch, gen uint64) *FIB {
	if f.cols != 1 {
		panic("fib: Delta of a multi-column FIB")
	}
	start := time.Now() //vnslint:wallclock measures real patch cost, not simulated time

	h := hopRows{rows: f.rows, index: f.index, shared: true}
	t := f.trie.Fork()
	prefixes := f.prefixes
	for _, p := range patches {
		pfx, ok := normalize(p.Prefix)
		if !ok {
			continue
		}
		if p.Install {
			if !p.NextHop.IsValid() {
				continue
			}
			t.Insert(pfx, h.row(p.NextHop))
			if !p.Existed {
				prefixes++
			}
		} else {
			if !p.Existed {
				continue
			}
			coverID := int32(0)
			if p.Cover.IsValid() {
				coverID = h.row(p.Cover)
			}
			t.Withdraw(pfx, coverID, p.CoverBits)
			prefixes--
		}
	}

	return &FIB{trie: t, rows: h.rows, comps: f.comps, index: h.index, cols: 1, gen: gen,
		prefixes: prefixes, deltas: f.deltas + 1,
		compile: time.Since(start)} //vnslint:wallclock measures real patch cost, not simulated time
}
