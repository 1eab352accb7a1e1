// Package fib is the compiled forwarding plane: it turns the control
// plane's per-prefix route decisions (sorted, prefix-major batches of
// one decision per PoP, handed to one Publisher) into an immutable
// longest-prefix-match structure that every PoP's data path queries
// lock-free, the way a router's FIB is compiled from its RIB.
//
// All PoPs share one trie: lpm's 8-bit-stride leaf-pushed multibit
// trie, over IPv4 only. Its value for a prefix is the id of an interned
// decision vector, the prefix's next hop at every PoP; geography makes
// most PoPs decide alike, so vectors are few and shared. A PoP's FIB is
// a small header over the trie and the vector table naming its column,
// so a lookup is at most four array indexes and one table read, no
// comparisons against prefix lists, no locks. A prefix with no route at
// one PoP holds its cover's next hop there, so each column answers
// exactly as a trie of that PoP's routes alone would. A compiled FIB is
// immutable; a publish compiles or patches (copy-on-write) one trie and
// atomically swaps a new header into each PoP whose next hops moved
// (the pointer is owned by the Engine, the read side; stored by the
// Publisher, the write side), so readers are wait-free while the
// control plane recompiles, and a PoP nothing moved at keeps its
// generation. One column is the single-PoP case: Compile, Delta and a
// one-engine Publisher. The reference linear-scan LPM it is
// differentially tested against lives in the package's tests
// (linear_test.go).
package fib

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net/netip"
	"slices"
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

// FIB is one PoP's published forwarding table: its column of a compiled
// plane. A plane is one trie and one vector table shared by every PoP
// it serves; a PoP's FIB is a small header naming its column, with its
// own generation, size and compile stats. All methods are safe for
// unsynchronized concurrent use.
type FIB struct {
	// trie maps each installed prefix to the 1-based id of its decision
	// vector in nexthops.
	trie lpm.Trie
	// nexthops is the vector table, cols next hops per vector: vector
	// v's next hop at column c is nexthops[(v-1)*cols+c]. A prefix with
	// no route at a column holds its cover's next hop there (the
	// effective vector; see writer), or the zero NextHop when nothing
	// covers it. Deltas share the table (and index) across generations;
	// a published table is never written (vectors.intern copies before
	// it appends).
	nexthops  []NextHop
	cols, col int
	// index maps a vector's hash to its id (vectors.intern), so a delta
	// can extend the table without rescanning it.
	index map[uint64]int32

	gen uint64
	// prefixes counts the prefixes with a route at this column.
	prefixes int
	compile  time.Duration
	// deltas counts Delta generations of the trie since its last full
	// compile (0 for a fresh build); the writer uses it to bound patch
	// drift.
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

// Compile builds a single-column FIB from entries, tagged with the
// given generation. Later duplicates of the same prefix win, mirroring
// table replacement semantics. Prefixes are normalized: an IPv4-mapped
// one is the IPv4 prefix it embeds, other non-IPv4 ones are ignored
// (the forwarding plane is IPv4, like the paper's deployment).
func Compile(entries []Entry, gen uint64) *FIB {
	start := time.Now() //vnslint:wallclock measures real compile cost, not simulated time
	dedup := make(map[netip.Prefix]NextHop, len(entries))
	for _, e := range entries {
		if p, ok := normalize(e.Prefix); ok && e.NextHop.IsValid() {
			dedup[p] = e.NextHop
		}
	}
	hops := make([]NextHop, 0, len(dedup))
	rows := make([]row, 0, len(dedup))
	//vnslint:maprange build sorts the rows before it reads them
	for p, nh := range dedup {
		hops = append(hops, nh)
		rows = append(rows, row{pfx: p, vec: hops[len(hops)-1:]})
	}
	t, v := build(rows, 1)
	return &FIB{trie: t, nexthops: v.nexthops, index: v.index, cols: 1, gen: gen,
		prefixes: len(rows), compile: time.Since(start)} //vnslint:wallclock measures real compile cost, not simulated time
}

// row is one prefix of a build: its vector and, once built, the
// vector's id in the new table.
type row struct {
	pfx netip.Prefix
	vec []NextHop
	id  int32
}

// build compiles rows (canonical, unique prefixes) into a fresh trie
// over a fresh table of cols-wide vectors, storing each row's id. Rows
// are ordered by prefix length, shorter (covering) prefixes first,
// leaf-pushed into child nodes as longer prefixes split them, so no
// insert has to push down into children; the order also makes the ids
// deterministic.
func build(rows []row, cols int) (lpm.Trie, vectors) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pfx.Bits() != rows[j].pfx.Bits() {
			return rows[i].pfx.Bits() < rows[j].pfx.Bits()
		}
		return rows[i].pfx.Addr().Less(rows[j].pfx.Addr())
	})
	v := vectors{cols: cols, index: make(map[uint64]int32, 64)}
	var t lpm.Trie
	for i := range rows {
		rows[i].id = v.intern(rows[i].vec)
		t.Insert(rows[i].pfx, rows[i].id)
	}
	return t, v
}

// vectors is a vector table being built or extended: cols next hops per
// vector, the index over them, and whether both still belong to a
// published FIB.
type vectors struct {
	cols     int
	nexthops []NextHop
	index    map[uint64]int32
	shared   bool
}

// vec returns vector id's next hops, a view into the table.
func (v *vectors) vec(id int32) []NextHop {
	return v.nexthops[int(id-1)*v.cols : int(id)*v.cols]
}

// intern returns the id of vec (cols next hops), appending it on first
// sight. A shared table and index are copied before the first append,
// so a published table, and every generation sharing it, is never
// written. The index maps a vector's hash to the first vector seen
// with it; a vector whose hash another holds is found by a scan of the
// table, which only a 64-bit hash collision costs.
func (v *vectors) intern(vec []NextHop) int32 {
	h := hashVector(vec)
	head, hashed := v.index[h]
	if hashed {
		if slices.Equal(v.vec(head), vec) {
			return head
		}
		for id := int32(1); int(id)*v.cols <= len(v.nexthops); id++ {
			if slices.Equal(v.vec(id), vec) {
				return id
			}
		}
	}
	if v.shared {
		v.nexthops = slices.Clip(v.nexthops) // the append below copies
		v.index = maps.Clone(v.index)
		v.shared = false
	}
	v.nexthops = append(v.nexthops, vec...)
	id := int32(len(v.nexthops) / v.cols)
	if !hashed {
		v.index[h] = id
	}
	return id
}

// hashVector hashes each next hop's PoP, neighbor and router address
// (an IPv6 one by its low half) into one FNV-1a step per next hop. Equal
// vectors hash equally; an IPv6 router's high half and zone are left
// out, so vectors differing only there collide and intern tells them
// apart.
func hashVector(vec []NextHop) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := range vec {
		nh := &vec[i]
		x := uint64(nh.PoP) ^ uint64(nh.Neighbor)<<32
		if nh.Router.Is4() {
			a := nh.Router.As4()
			x ^= uint64(binary.BigEndian.Uint32(a[:])) << 8
		} else {
			a := nh.Router.As16()
			x ^= binary.LittleEndian.Uint64(a[8:])
		}
		h = (h ^ x*0x9E3779B97F4A7C15) * prime
	}
	return h
}

// Lookup returns the longest-prefix-match next hop for addr at the
// FIB's column. It is wait-free: at most four array indexes and one
// table read, no locks, no allocation.
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
	if id := f.trie.Lookup(a[:]); id != 0 {
		nh := f.nexthops[int(id-1)*f.cols+f.col]
		return nh, nh.IsValid()
	}
	return NextHop{}, false
}

// Generation returns the compile generation the table was built at.
func (f *FIB) Generation() uint64 { return f.gen }

// Size returns the number of prefixes with a route at the FIB's column.
func (f *FIB) Size() int { return f.prefixes }

// CompileDuration returns how long the compile took.
func (f *FIB) CompileDuration() time.Duration { return f.compile }
