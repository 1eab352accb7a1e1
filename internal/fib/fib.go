// Package fib is the compiled forwarding plane: it turns the control
// plane's route decisions into an immutable longest-prefix-match
// structure that every PoP's data path queries lock-free, the way a
// router's FIB is compiled from its RIB.
//
// All PoPs share one trie: lpm's 8-bit-stride leaf-pushed multibit
// trie, over IPv4 only. Its value for a prefix names a row, the way BGP
// PIC (draft-ietf-rtgwg-bgp-pic) points prefixes at shared path-lists:
// a row holds a next hop for every PoP, and the rows are the caller's —
// vns.Forwarding's path-lists, each resolved at every PoP — so a
// liveness or IGP change replaces the row table (Publisher.Resolve) and
// touches no trie, while a per-prefix change re-points prefixes
// (Publisher.Repoint), copy-on-write. A PoP's FIB is a small header
// over the trie and the row table naming its column, so a lookup is at
// most four array indexes and one table read, no comparisons against
// prefix lists, no locks. A prefix whose row has no route at one PoP
// answers with its cover's next hop there: a covered prefix points at a
// composite of its row and its cover's value, so each column answers
// exactly as a trie of that PoP's routes alone would, whichever columns
// its row resolves at. A compiled FIB is immutable; a publish compiles
// or patches one trie, or takes a new row table, and atomically swaps a
// new header into each PoP whose next hops moved (the pointer is owned
// by the Engine, the read side; stored by the Publisher, the write
// side), so readers are wait-free while the control plane recompiles,
// and a PoP nothing moved at keeps its generation. One column is the
// single-PoP case, whose rows are its distinct next hops: Compile,
// Delta and a one-engine Publisher's Publish. The reference linear-scan
// LPM it is differentially tested against lives in the package's tests
// (linear_test.go).
package fib

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
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
// plane. A plane is one trie and one row table shared by every PoP it
// serves; a PoP's FIB is a small header naming its column, with its own
// generation, size and compile stats. All methods are safe for
// unsynchronized concurrent use.
type FIB struct {
	// trie maps each installed prefix to its row: a positive value is a
	// row id in rows, a negative one a composite's in comps.
	trie lpm.Trie
	// rows is the row table, cols next hops per row: row r's next hop
	// at column c is rows[(r-1)*cols+c]. The table is its caller's (a
	// plane's path-list rows) or, for a one-column table, its distinct
	// next hops. A published table is never written where a lookup
	// through this FIB can read it.
	rows []NextHop
	// comps holds the composite rows of covered prefixes (the writer's
	// composites): composite -k's next hop at column c is
	// comps[(k-1)*cols+c].
	comps     []NextHop
	cols, col int
	// index maps a one-column table's next hops to their row ids
	// (hopRows), so a Delta can extend the table without rescanning it;
	// nil for a plane whose rows are its caller's.
	index map[NextHop]int32

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
// (the forwarding plane is IPv4, like the paper's deployment). Its rows
// are its distinct next hops.
func Compile(entries []Entry, gen uint64) *FIB {
	start := time.Now() //vnslint:wallclock measures real compile cost, not simulated time
	dedup := make(map[netip.Prefix]NextHop, len(entries))
	for _, e := range entries {
		if p, ok := normalize(e.Prefix); ok && e.NextHop.IsValid() {
			dedup[p] = e.NextHop
		}
	}
	var h hopRows
	//vnslint:maprange build sorts the prefixes before it reads them
	t := build(slices.Collect(maps.Keys(dedup)), func(p netip.Prefix) int32 { return h.row(dedup[p]) })
	return &FIB{trie: t, rows: h.rows, index: h.index, cols: 1, gen: gen,
		prefixes: len(dedup), compile: time.Since(start)} //vnslint:wallclock measures real compile cost, not simulated time
}

// build compiles prefixes (canonical, unique) into a fresh trie, each
// with the value val returns for it. Prefixes are taken by length,
// shorter (covering) ones first, leaf-pushed into child nodes as longer
// prefixes split them, so no insert has to push down into children.
// val runs for a prefix after it ran for the prefix's covers, and in an
// order that makes any numbering it hands out deterministic.
func build(prefixes []netip.Prefix, val func(netip.Prefix) int32) lpm.Trie {
	slices.SortFunc(prefixes, func(a, b netip.Prefix) int {
		if a.Bits() != b.Bits() {
			return a.Bits() - b.Bits()
		}
		return a.Addr().Compare(b.Addr())
	})
	var t lpm.Trie
	for _, p := range prefixes {
		t.Insert(p, val(p))
	}
	return t
}

// hopRows is a one-column row table: each distinct next hop is one row.
// Compile, Delta and a plane fed by Publisher.Publish number their
// next hops through it.
type hopRows struct {
	rows  []NextHop
	index map[NextHop]int32
	// shared marks rows and index as a published FIB's: the first new
	// row copies both, so a published table, and every generation
	// sharing it, is never written.
	shared bool
}

// row returns nh's row id, appending it on first sight.
func (h *hopRows) row(nh NextHop) int32 {
	if id, ok := h.index[nh]; ok {
		return id
	}
	if h.shared || h.index == nil {
		h.rows = slices.Clip(h.rows) // the append below copies
		h.index = maps.Clone(h.index)
		if h.index == nil {
			h.index = make(map[NextHop]int32)
		}
		h.shared = false
	}
	h.rows = append(h.rows, nh)
	id := int32(len(h.rows))
	h.index[nh] = id
	return id
}

// Lookup returns the longest-prefix-match next hop for addr at the
// FIB's column. It is wait-free: at most four array indexes and one
// table read, no locks, no allocation. A prefix whose row has no route
// at the column answers with its cover's next hop there (its composite
// row), or no route.
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
	id := f.trie.Lookup(a[:])
	if id > 0 {
		nh := f.rows[int(id-1)*f.cols+f.col]
		return nh, nh.IsValid()
	}
	if id < 0 {
		nh := f.comps[int(-id-1)*f.cols+f.col]
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
