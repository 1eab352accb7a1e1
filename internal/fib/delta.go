package fib

import (
	"maps"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"
)

// This file implements delta compilation: patching a published trie
// with a small set of prefix transitions instead of rebuilding it from
// scratch. A full compile is O(table); at Internet scale (~400k
// prefixes) that is milliseconds of work and megabytes of garbage per
// churn event, while the steady-state UPDATE stream touches a handful
// of prefixes at a time. Delta patches the affected stride nodes only,
// under copy-on-write: every node on a modified path is cloned into
// the new generation, so the previously published *FIB stays immutable
// and readers of either generation remain wait-free. The next-hop table
// is shared with the parent generation too, and copied only when a
// patch brings a next hop it does not hold: a patch costs the nodes it
// clones and one FIB header, not a pass over the table.
//
// Ownership is tracked per leaf slot (node.leafBits): a slot records
// the length of the prefix whose action occupies it. A patch for
// prefix p overwrites exactly the slots owned by prefixes no longer
// than p (leaf-pushing itself down into existing children), and a
// withdrawal of p restores exactly the slots p owns to p's covering
// route — which the caller supplies, because only the owner of the
// authoritative entry set (the Publisher) can name the next-longest
// match once p is gone.

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

// deltaSessions hands every Delta call a unique owner ID. The
// generation cannot serve: it is caller-chosen, so two sessions may
// share one, and a reused stamp would let a session write in place
// into nodes a published FIB holds.
var deltaSessions atomic.Uint64

// delta tracks one in-progress copy-on-write patch session: the FIB
// being built, the owner ID stamped on every node cloned into it (so a
// batch touching overlapping paths clones each node once), and whether
// the FIB's next-hop table is still the parent's.
type delta struct {
	f        *FIB
	id       uint64
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
		nexthops: f.nexthops,
		nhIndex:  f.nhIndex,
		gen:      gen,
		prefixes: f.prefixes,
		nodes:    f.nodes,
		deltas:   f.deltas + 1,
	}
	d := delta{f: nf, id: deltaSessions.Add(1), sharedNH: true}
	nf.root = d.clone(f.root)

	for _, p := range patches {
		pfx, ok := normalize(p.Prefix)
		if !ok {
			continue
		}
		if p.Install {
			if !p.NextHop.IsValid() {
				continue
			}
			d.install(pfx, d.intern(p.NextHop))
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
			d.withdraw(pfx, coverIdx, int8(p.CoverBits))
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

// clone returns a node owned by this delta session: n itself when a
// previous patch in the batch already cloned it, a fresh copy
// otherwise. The caller stores the result back into its parent slot.
func (d *delta) clone(n *node) *node {
	if n.owner == d.id {
		return n
	}
	c := new(node)
	*c = *n
	c.owner = d.id
	return c
}

// walk descends to the node where pfx's leaf span lives, cloning every
// node on the path into the delta and creating (leaf-pushed) children
// where the path does not exist yet. It returns the final node with
// the span's slot range. The root must already be owned.
func (d *delta) walk(pfx netip.Prefix) (n *node, lo, span int) {
	addr := pfx.Addr().As4()
	bits := pfx.Bits()
	n = d.f.root
	depth := 0
	for bits > (depth+1)*8 {
		b := addr[depth]
		c := n.child[b]
		if c == nil {
			c = &node{owner: d.id}
			d.f.nodes++
			// Leaf-push: the covering route at this slot applies to the
			// whole new subtree until the patch overwrites part of it.
			if l := n.leaf[b]; l != 0 {
				lb := n.leafBits[b]
				for i := range c.leaf {
					c.leaf[i] = l
					c.leafBits[i] = lb
				}
			}
		} else {
			c = d.clone(c)
		}
		n.child[b] = c
		n = c
		depth++
	}
	span = 1 << (8 - (bits - depth*8))
	lo = int(addr[depth]) &^ (span - 1)
	return n, lo, span
}

// install applies one announce/change: within the prefix's span, every
// slot owned by a prefix no longer than bits takes the new action, and
// existing children under those slots inherit it by leaf-pushing —
// exactly the state a full compile would have produced.
func (d *delta) install(pfx netip.Prefix, idx int32) {
	n, lo, span := d.walk(pfx)
	bits := int8(pfx.Bits())
	for s := lo; s < lo+span; s++ {
		if n.leafBits[s] > bits {
			// A longer prefix owns this whole slot region; the new
			// route is shadowed everywhere inside it.
			continue
		}
		n.leaf[s] = idx
		n.leafBits[s] = bits
		if c := n.child[s]; c != nil {
			c = d.clone(c)
			n.child[s] = c
			d.pushDown(c, idx, bits)
		}
	}
}

// pushDown propagates an installed route into an (already cloned)
// subtree, overwriting slots owned by shorter prefixes and descending
// only where the new route can still win.
func (d *delta) pushDown(n *node, idx int32, bits int8) {
	for s := range n.leaf {
		if n.leafBits[s] > bits {
			continue
		}
		n.leaf[s] = idx
		n.leafBits[s] = bits
		if c := n.child[s]; c != nil {
			c = d.clone(c)
			n.child[s] = c
			d.pushDown(c, idx, bits)
		}
	}
}

// withdraw applies one withdrawal: every slot owned by exactly the
// withdrawn prefix reverts to the covering route. Slots owned by
// longer prefixes — and the subtrees under them — are untouched.
func (d *delta) withdraw(pfx netip.Prefix, coverIdx int32, coverBits int8) {
	addr := pfx.Addr().As4()
	bits := pfx.Bits()
	// Unlike install, a missing path means the prefix is not in the
	// trie (its insert would have created the path), so there is
	// nothing to revert.
	n := d.f.root
	depth := 0
	for bits > (depth+1)*8 {
		b := addr[depth]
		c := n.child[b]
		if c == nil {
			return
		}
		c = d.clone(c)
		n.child[b] = c
		n = c
		depth++
	}
	span := 1 << (8 - (bits - depth*8))
	lo := int(addr[depth]) &^ (span - 1)
	d.replaceOwned(n, lo, lo+span, int8(bits), coverIdx, coverBits)
}

// replaceOwned rewrites every slot in [lo, hi) of an (already cloned)
// node owned by a prefix of exactly ownerBits to the covering route,
// recursing into children that may still hold owned slots deeper down.
func (d *delta) replaceOwned(n *node, lo, hi int, ownerBits int8, coverIdx int32, coverBits int8) {
	for s := lo; s < hi; s++ {
		if n.leafBits[s] != ownerBits {
			// Either a longer prefix owns the whole slot region (no
			// owned slots anywhere beneath), or — above the owner's
			// granularity — a shorter one does, which cannot happen
			// inside an installed prefix's own span.
			continue
		}
		n.leaf[s] = coverIdx
		n.leafBits[s] = coverBits
		if c := n.child[s]; c != nil {
			c = d.clone(c)
			n.child[s] = c
			d.replaceOwned(c, 0, 256, ownerBits, coverIdx, coverBits)
		}
	}
}
