// Package fib is the compiled forwarding plane: it turns the control
// plane's per-prefix route decisions (sorted entry batches, handed to
// each PoP's Publisher) into an immutable longest-prefix-match
// structure that the data path queries lock-free, the way a router's
// FIB is compiled from its RIB.
//
// The lookup structure is an 8-bit-stride leaf-pushed multibit trie for
// IPv4: at most four array indexes per lookup, no comparisons against
// prefix lists, no locks. A compiled FIB is immutable; updates are
// published by compiling a fresh trie and atomically swapping the
// pointer (owned by the Engine, the read side; stored by the Publisher,
// the write side), so readers are wait-free while the control plane
// recompiles. The reference linear-scan LPM it is differentially tested
// against lives in the package's tests (linear_test.go).
package fib

import (
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// NextHop is the forwarding action for a destination: the egress PoP to
// carry traffic to over the internal fabric, and the session to hand it
// off on there.
type NextHop struct {
	// PoP is the 1-based egress PoP id; 0 marks an invalid next hop.
	PoP int
	// Router is the VNS-side egress router terminating the session.
	Router netip.Addr
	// Neighbor is the neighbor index the egress session belongs to
	// (vns.Neighbor.Index); 0 for statically pinned routes.
	Neighbor int
}

// IsValid reports whether the next hop names an egress PoP.
func (nh NextHop) IsValid() bool { return nh.PoP != 0 }

func (nh NextHop) String() string {
	if !nh.IsValid() {
		return "invalid"
	}
	return fmt.Sprintf("pop%d via %v (neighbor %d)", nh.PoP, nh.Router, nh.Neighbor)
}

// Entry pairs a prefix with its resolved forwarding action; a slice of
// entries is the compiler's input, one per best route.
type Entry struct {
	Prefix  netip.Prefix
	NextHop NextHop
}

// node is one 8-bit-stride trie level: 256 slots, each either an
// internal child (descend) or a leaf-pushed next-hop index. Nodes are
// write-once during compilation and never mutated afterwards, which is
// what makes concurrent lookups safe without synchronization; delta
// compiles (Delta) honor this by copy-on-write cloning every node they
// touch into the new generation.
type node struct {
	child [256]*node
	// leaf holds 1-based indexes into FIB.nexthops; 0 means no route.
	// When child[i] is non-nil the covering route has been pushed down
	// into the child, so leaf[i] is not consulted by Lookup.
	leaf [256]int32
	// leafBits records, per slot, the length of the prefix whose
	// next-hop index occupies leaf[i] (0 when leaf[i] == 0). Lookup
	// never reads it; delta compiles need it to decide ownership: a
	// patch for prefix p only overwrites slots whose current owner is
	// no longer than p, and a withdrawal restores exactly the slots p
	// owned to p's covering route. The invariant maintained at every
	// slot i of a depth-d node — whether or not child[i] exists — is
	// that (leaf[i], leafBits[i]) names the longest installed prefix of
	// length ≤ (d+1)*8 covering the slot's address region.
	leafBits [256]int8
}

// FIB is one immutable compiled forwarding table. All methods are safe
// for unsynchronized concurrent use.
type FIB struct {
	root     *node
	nexthops []NextHop
	// nhIndex maps a next hop to its 1-based index in nexthops, so
	// delta compiles can extend the action table without rescanning it.
	nhIndex map[NextHop]int32

	gen      uint64
	prefixes int
	nodes    int
	compile  time.Duration
	// deltas counts Delta generations since the last full Compile (0
	// for a fresh build); the Publisher uses it to bound patch drift.
	deltas int
}

// Compile builds a FIB from entries, tagged with the given generation.
// Later duplicates of the same prefix win, mirroring table replacement
// semantics. Non-IPv4 prefixes are ignored (the forwarding plane is
// IPv4, like the paper's deployment).
func Compile(entries []Entry, gen uint64) *FIB {
	start := time.Now() //vnslint:wallclock measures real compile cost, not simulated time

	// Deduplicate, normalize and order by prefix length so every insert
	// lands in a node whose final-stride slots have no children yet:
	// shorter (covering) prefixes first, leaf-pushed into child nodes as
	// longer prefixes split them.
	dedup := make(map[netip.Prefix]NextHop, len(entries))
	for _, e := range entries {
		p := e.Prefix
		if p.Addr().Is4In6() {
			p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits())
		}
		if !p.Addr().Is4() || !e.NextHop.IsValid() {
			continue
		}
		dedup[p.Masked()] = e.NextHop
	}
	ordered := make([]Entry, 0, len(dedup))
	for p, nh := range dedup {
		ordered = append(ordered, Entry{Prefix: p, NextHop: nh})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Prefix.Bits() != ordered[j].Prefix.Bits() {
			return ordered[i].Prefix.Bits() < ordered[j].Prefix.Bits()
		}
		return ordered[i].Prefix.Addr().Less(ordered[j].Prefix.Addr())
	})

	f := &FIB{root: &node{}, gen: gen, nodes: 1, nhIndex: make(map[NextHop]int32, 64)}
	for _, e := range ordered {
		f.insert(e.Prefix, f.internNextHop(e.NextHop))
		f.prefixes++
	}
	f.compile = time.Since(start) //vnslint:wallclock measures real compile cost, not simulated time
	return f
}

// internNextHop returns nh's 1-based index in f.nexthops, appending it
// on first sight.
func (f *FIB) internNextHop(nh NextHop) int32 {
	idx, ok := f.nhIndex[nh]
	if !ok {
		f.nexthops = append(f.nexthops, nh)
		idx = int32(len(f.nexthops))
		f.nhIndex[nh] = idx
	}
	return idx
}

// insert adds one prefix. Prefixes must arrive in non-decreasing length
// order (Compile guarantees this): then the final node's covered slots
// never hold children, so a plain leaf write suffices, and any child
// created on the walk inherits the covering route by leaf-pushing.
func (f *FIB) insert(p netip.Prefix, idx int32) {
	addr := p.Addr().As4()
	bits := p.Bits()
	n := f.root
	depth := 0
	for bits > (depth+1)*8 {
		b := addr[depth]
		c := n.child[b]
		if c == nil {
			c = &node{}
			f.nodes++
			// Leaf-push: the covering route installed earlier at this
			// slot applies to the whole new subtree until longer
			// prefixes overwrite parts of it.
			if l := n.leaf[b]; l != 0 {
				lb := n.leafBits[b]
				for i := range c.leaf {
					c.leaf[i] = l
					c.leafBits[i] = lb
				}
			}
			n.child[b] = c
		}
		n = c
		depth++
	}
	// The prefix ends within this node's stride: it covers a power-of-two
	// aligned run of slots.
	span := 1 << (8 - (bits - depth*8))
	lo := int(addr[depth]) &^ (span - 1)
	patchSpan(n, lo, span, idx, int8(bits))
}

// patchSpan writes one prefix's next-hop index and owner length into a
// run of leaf slots. It is the innermost write loop of both the full
// compiler and the delta patcher, so it must stay allocation-free.
//
//vnslint:hotpath
func patchSpan(n *node, lo, span int, idx int32, bits int8) {
	for s := lo; s < lo+span; s++ {
		n.leaf[s] = idx
		n.leafBits[s] = bits
	}
}

// Lookup returns the longest-prefix-match next hop for addr. It is
// wait-free: at most four array indexes, no locks, no allocation.
//
//vnslint:hotpath
func (f *FIB) Lookup(addr netip.Addr) (NextHop, bool) {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.Is4() {
		return NextHop{}, false
	}
	a := addr.As4()
	n := f.root
	for d := 0; d < 4; d++ {
		b := a[d]
		if c := n.child[b]; c != nil {
			n = c
			continue
		}
		if idx := n.leaf[b]; idx != 0 {
			return f.nexthops[idx-1], true
		}
		return NextHop{}, false
	}
	// Unreachable: /32 leaves sit in depth-3 nodes, which have no
	// children.
	return NextHop{}, false
}

// Generation returns the compile generation the table was built at.
func (f *FIB) Generation() uint64 { return f.gen }

// Size returns the number of installed prefixes.
func (f *FIB) Size() int { return f.prefixes }

// Nodes returns the number of trie nodes, a memory-footprint proxy.
func (f *FIB) Nodes() int { return f.nodes }

// CompileDuration returns how long the compile took.
func (f *FIB) CompileDuration() time.Duration { return f.compile }
