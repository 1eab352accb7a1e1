// Package fib is the compiled forwarding plane: it turns the control
// plane's per-prefix route decisions (sorted entry batches, handed to
// each PoP's Publisher) into an immutable longest-prefix-match
// structure that the data path queries lock-free, the way a router's
// FIB is compiled from its RIB.
//
// The lookup structure is lpm's 8-bit-stride leaf-pushed multibit trie,
// over IPv4 only: at most four array indexes per lookup, no comparisons
// against prefix lists, no locks. A compiled FIB is immutable; updates are
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

	"vns/internal/lpm"
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

// FIB is one immutable compiled forwarding table. All methods are safe
// for unsynchronized concurrent use.
type FIB struct {
	// trie maps each installed prefix to its 1-based index in nexthops.
	trie lpm.Trie
	// nexthops is the action table leaf indexes point into. Deltas
	// share it (and nhIndex) across generations; a published table is
	// never written (delta.intern copies before it appends).
	nexthops []NextHop
	// nhIndex maps a next hop to its 1-based index in nexthops, so
	// delta compiles can extend the action table without rescanning it.
	nhIndex map[NextHop]int32

	gen      uint64
	prefixes int
	compile  time.Duration
	// deltas counts Delta generations since the last full Compile (0
	// for a fresh build); the Publisher uses it to bound patch drift.
	deltas int
}

// normalize returns the prefix the forwarding plane stores for p
// (lpm.Canonical: masked, an IPv4-mapped prefix of 96 bits or more as
// the IPv4 prefix it embeds). It reports false for every prefix that is
// not IPv4 then: the forwarding plane carries IPv4 only.
func normalize(p netip.Prefix) (netip.Prefix, bool) {
	p, ok := lpm.Canonical(p)
	return p, ok && p.Addr().Is4()
}

// Compile builds a FIB from entries, tagged with the given generation.
// Later duplicates of the same prefix win, mirroring table replacement
// semantics. Prefixes are normalized: an IPv4-mapped one is the IPv4
// prefix it embeds, other non-IPv4 ones are ignored (the forwarding
// plane is IPv4, like the paper's deployment).
func Compile(entries []Entry, gen uint64) *FIB {
	start := time.Now() //vnslint:wallclock measures real compile cost, not simulated time

	// Deduplicate, normalize and order by prefix length: shorter
	// (covering) prefixes first, leaf-pushed into child nodes as longer
	// prefixes split them, so no insert has to push down into children.
	dedup := make(map[netip.Prefix]NextHop, len(entries))
	for _, e := range entries {
		if p, ok := normalize(e.Prefix); ok && e.NextHop.IsValid() {
			dedup[p] = e.NextHop
		}
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

	f := &FIB{gen: gen, prefixes: len(ordered), nhIndex: make(map[NextHop]int32, 64)}
	for _, e := range ordered {
		f.trie.Insert(e.Prefix, f.internNextHop(e.NextHop))
	}
	f.compile = time.Since(start) //vnslint:wallclock measures real compile cost, not simulated time
	return f
}

// internNextHop returns nh's 1-based index in f.nexthops, appending it
// on first sight. f must own its table (see delta.intern).
func (f *FIB) internNextHop(nh NextHop) int32 {
	idx, ok := f.nhIndex[nh]
	if !ok {
		f.nexthops = append(f.nexthops, nh)
		idx = int32(len(f.nexthops))
		f.nhIndex[nh] = idx
	}
	return idx
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
	if idx := f.trie.Lookup(a[:]); idx != 0 {
		return f.nexthops[idx-1], true
	}
	return NextHop{}, false
}

// Generation returns the compile generation the table was built at.
func (f *FIB) Generation() uint64 { return f.gen }

// Size returns the number of installed prefixes.
func (f *FIB) Size() int { return f.prefixes }

// CompileDuration returns how long the compile took.
func (f *FIB) CompileDuration() time.Duration { return f.compile }
