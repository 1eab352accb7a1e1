package fib

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"vns/internal/detsort"
	"vns/internal/lpm"
)

// deltaThreshold is the number of prefixes whose vector moved up to
// which a publish is a copy-on-write delta patch in place of a full
// rebuild. Steady-state churn is single-prefix; above this size a full
// compile is both cheaper per prefix and the natural compaction point.
const deltaThreshold = 64

// deltaCompactAfter bounds patch drift: after this many consecutive
// delta generations the next publish recompiles from scratch, pruning
// nodes orphaned by withdrawals (a patched trie never frees them).
const deltaCompactAfter = 4096

// Stats is one column's publishing state, for operational exposure
// (cmd/vnsd) and tests.
type Stats struct {
	// Generation counts the publishes that moved this column; the
	// column's current FIB carries it.
	Generation uint64
	// Prefixes is the number of prefixes with a route at this column.
	Prefixes int
	// LastCompile is the duration of the most recent full build this
	// column was published from.
	LastCompile time.Duration
	// Compiles counts this column's publishes from a full trie build;
	// DeltaCompiles those from a copy-on-write patch of the current
	// trie; SkippedCompiles counts publishes in which none of the
	// column's next hops moved, so nothing was published to it (the
	// no-spurious-churn fast path).
	Compiles        uint64
	DeltaCompiles   uint64
	SkippedCompiles uint64
	// LastDelta is the duration of the most recent delta patch this
	// column was published from.
	LastDelta time.Duration
}

// Publisher is one engine's handle on the write side of its plane: the
// engines NewEngines builds together share one writer, so Publish on
// any of their Publishers publishes every column, and Stats reads this
// engine's column. The writer owns the installed decisions and every
// publish. It decides nothing: the control plane decides each prefix at
// each column and hands the decisions over in one Publish. It has one
// writer — the caller serializes Publish, as vns.Forwarding's pass lock
// does — beside any number of readers, which go through the Engines it
// feeds and never block. It batches nothing itself: a caller that wants
// a burst to cost one publish hands it over as one batch
// (vns.Forwarding owns the deployment's debounce).
type Publisher struct {
	w   *writer
	col int
}

// writer is a plane's write side. It keeps one trie and one vector
// table for every column: a prefix is installed when it has a route at
// some column, and its trie value is its effective vector — at each
// column its decided next hop, or where it has none there, its
// longest installed cover's effective next hop at that column (the
// zero NextHop when nothing covers it). A column's lookups are then
// exactly those of a per-column trie holding only that column's
// routes. The writer also keeps the decided vector of each prefix with
// a no-route column, and re-derives its effective vector whenever a
// prefix covering it changes.
type writer struct {
	// engines holds each column's published pointer, by column.
	engines []*Engine

	// mu guards the write state against Stats readers.
	mu sync.Mutex
	// trie and vec are the plane's current trie and vector table; every
	// FIB a publish stores shares both. deltas counts the trie's delta
	// generations since its last full compile.
	trie   lpm.Trie
	vec    vectors
	deltas int
	// entries is the installed set, keyed by normalized prefix; lens
	// counts its prefixes of each length, so a cover lookup probes only
	// lengths some prefix has.
	entries map[netip.Prefix]entry
	lens    [33]int
	// partial counts the entries with a no-route column; partials holds
	// their prefixes in detsort.PrefixCompare order, or nil when an
	// entry gained or lost a no-route column since it was sorted.
	partial  int
	partials []netip.Prefix
	// counts is, per column, the number of prefixes with a route there.
	counts []int
	stats  []Stats

	// Per-publish buffers, reused by every publish: the columns it
	// moved, one vector, the prefixes it re-derives and the trie
	// changes a delta patches.
	moved []bool
	work  []NextHop
	recs  []rec
	ops   []op
}

// entry is an installed prefix's state.
type entry struct {
	// vec is the effective vector's id: the prefix's trie value.
	vec int32
	// raw is the decided vector's id when it has a no-route column, 0
	// when it has none (the effective vector is the decided one).
	raw int32
}

// decided returns the id of the entry's decided vector.
func (e entry) decided() int32 {
	if e.raw != 0 {
		return e.raw
	}
	return e.vec
}

// rec is a prefix a publish re-derives, with its effective vector id
// before the publish (0 when it was not installed).
type rec struct {
	pfx netip.Prefix
	old int32
}

// op is one trie change of a delta: install pfx with vector vec, or
// withdraw it when vec is 0.
type op struct {
	pfx netip.Prefix
	vec int32
}

// NewEngines builds one engine per 1-based PoP id in pops, all
// forwarding over fabric and fed by one writer: column c of the plane
// is pops[c]'s. Every engine starts at an empty generation-0 FIB.
func NewEngines(pops []int, fabric Fabric) []*Engine {
	cols := len(pops)
	w := &writer{
		engines: make([]*Engine, cols),
		vec:     vectors{cols: cols, index: make(map[uint64]int32)},
		counts:  make([]int, cols),
		stats:   make([]Stats, cols),
		moved:   make([]bool, cols),
		work:    make([]NextHop, cols),
	}
	empty := Compile(nil, 0)
	for c, pop := range pops {
		e := &Engine{pop: pop, fabric: fabric, pub: &Publisher{w: w, col: c}}
		e.cur.Store(empty)
		w.engines[c] = e
	}
	return w.engines
}

// Publish installs a batch of decided entries at every column of the
// plane and publishes the result before it returns. The batch is prefix
// major: one row of one entry per column (the column's decision) for
// each prefix, rows sorted by detsort.PrefixCompare without duplicates,
// so a cover is derived before the prefixes it contains; an unsorted
// batch, a row naming two prefixes or a ragged batch panics. With one
// column a row is one entry. An entry with an invalid NextHop withdraws
// its prefix at that column, where lookups fall through to its cover.
// Prefixes are normalized as Compile does them: an IPv4-mapped prefix
// installs or withdraws the IPv4 prefix it embeds, and other non-IPv4
// prefixes are ignored.
//
// The first publish is the initial table download and always a full
// compile. A later one publishes the columns whose next hops moved,
// each through a new FIB header over the one trie: a copy-on-write
// delta when at most deltaThreshold prefixes' vectors moved, a full
// compile otherwise. Publish returns the lowest moved column's FIB (all
// of a publish's FIBs share its trie and compile duration), or nil when
// no column moved.
func (p *Publisher) Publish(batch []Entry) *FIB {
	w := p.w
	cols := len(w.engines)
	if len(batch)%cols != 0 {
		panic(fmt.Sprintf("fib: publish batch of %d entries is not rows of %d columns", len(batch), cols))
	}
	for i := 1; i < len(batch); i++ {
		if i%cols != 0 {
			if batch[i].Prefix != batch[i-1].Prefix {
				panic(fmt.Sprintf("fib: publish row names %v and %v", batch[i-1].Prefix, batch[i].Prefix))
			}
		} else if detsort.PrefixCompare(batch[i-cols].Prefix, batch[i].Prefix) >= 0 {
			panic(fmt.Sprintf("fib: publish batch not sorted and unique at %v, %v", batch[i-cols].Prefix, batch[i].Prefix))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// The first publish moves every column off its generation 0.
	first := w.engines[0].cur.Load().Generation() == 0
	if !first && len(batch) == 0 {
		return nil
	}
	if w.entries == nil {
		w.entries = make(map[netip.Prefix]entry, len(batch)/cols)
	}
	clear(w.moved)
	recs := w.recs[:0]
	for r := 0; r < len(batch); r += cols {
		if pfx, ok := normalize(batch[r].Prefix); ok {
			recs = w.update(recs, pfx, batch[r:r+cols])
		}
	}
	recs = w.covered(recs)
	ops := w.derive(recs, slices.Grow(w.ops[:0], len(recs)))
	if cap(recs) <= deltaThreshold {
		// Keep the buffers for the next publish, but not ones grown by
		// a batch that compiles in full anyway.
		w.recs, w.ops = recs[:0], ops[:0]
	}

	if first {
		for c := range w.moved {
			w.moved[c] = true
		}
	} else if !slices.Contains(w.moved, true) {
		for c := range w.stats {
			w.stats[c].SkippedCompiles++
		}
		return nil
	}
	start := time.Now() //vnslint:wallclock measures real compile cost, not simulated time
	full := first || len(ops) > deltaThreshold || w.deltas >= deltaCompactAfter
	if full {
		w.compile()
	} else {
		w.patch(ops)
	}
	took := time.Since(start) //vnslint:wallclock measures real compile cost, not simulated time
	return w.store(full, took)
}

// update applies one normalized row to the installed set. An unchanged
// row costs one probe and a compare of its next hops with the stored
// vector. A changed one marks the columns it moves, adjusts their
// counts, stores the decided vector and joins recs with its effective
// vector id before the change; a decided vector with a no-route column
// keeps its old effective id until derive.
func (w *writer) update(recs []rec, pfx netip.Prefix, row []Entry) []rec {
	e, had := w.entries[pfx]
	var old []NextHop
	if had {
		old = w.vec.vec(e.decided())
	}
	changed, valid := false, 0
	for c := range row {
		n := row[c].NextHop
		if n.IsValid() {
			valid++
		}
		var o NextHop
		if had {
			o = old[c]
		}
		if o == n || !o.IsValid() && !n.IsValid() {
			continue
		}
		changed = true
		w.moved[c] = true
		if o.IsValid() {
			w.counts[c]--
		}
		if n.IsValid() {
			w.counts[c]++
		}
	}
	if !changed {
		return recs
	}
	recs = append(recs, rec{pfx: pfx, old: e.vec})
	wasPartial, isPartial := e.raw != 0, valid > 0 && valid < len(row)
	if wasPartial {
		w.partial--
	}
	if isPartial {
		w.partial++
	}
	if wasPartial != isPartial {
		w.partials = nil
	}
	if valid == 0 {
		delete(w.entries, pfx)
		w.lens[pfx.Bits()]--
		return recs
	}
	if !had {
		w.lens[pfx.Bits()]++
	}
	for c := range row {
		w.work[c] = NextHop{}
		if row[c].NextHop.IsValid() {
			w.work[c] = row[c].NextHop
		}
	}
	id := w.vec.intern(w.work)
	if isPartial {
		w.entries[pfx] = entry{vec: e.vec, raw: id}
	} else {
		w.entries[pfx] = entry{vec: id}
	}
	return recs
}

// covered returns recs, the changed prefixes, together with every
// installed prefix with a no-route column that one of them covers (its
// effective vector may follow the cover's), sorted by
// detsort.PrefixCompare with one rec per prefix: the changed one's,
// which holds the effective id from before the publish.
func (w *writer) covered(recs []rec) []rec {
	if w.partial > 0 && len(recs) > 0 {
		if w.partials == nil {
			w.partials = make([]netip.Prefix, 0, w.partial)
			//vnslint:maprange sorted below before it is read
			for pfx, e := range w.entries {
				if e.raw != 0 {
					w.partials = append(w.partials, pfx)
				}
			}
			slices.SortFunc(w.partials, detsort.PrefixCompare)
		}
		for _, r := range recs {
			// A prefix r covers sorts after r, and so does every prefix
			// between them: r's covered prefixes are one run.
			i, _ := slices.BinarySearchFunc(w.partials, r.pfx, detsort.PrefixCompare)
			for ; i < len(w.partials) && r.pfx.Contains(w.partials[i].Addr()); i++ {
				if q := w.partials[i]; q != r.pfx {
					recs = append(recs, rec{pfx: q, old: w.entries[q].vec})
				}
			}
		}
	}
	byPrefix := func(a, b rec) int { return detsort.PrefixCompare(a.pfx, b.pfx) }
	if !slices.IsSortedFunc(recs, byPrefix) {
		slices.SortStableFunc(recs, byPrefix)
	}
	return slices.CompactFunc(recs, func(a, b rec) bool { return a.pfx == b.pfx })
}

// derive sets the effective vector of every installed prefix in recs,
// in order, so a cover's is final before the prefixes it covers read
// it, and appends to ops a trie change for each prefix whose effective
// vector moved.
func (w *writer) derive(recs []rec, ops []op) []op {
	for _, r := range recs {
		e, ok := w.entries[r.pfx]
		if !ok {
			if r.old != 0 {
				ops = append(ops, op{pfx: r.pfx})
			}
			continue
		}
		if e.raw != 0 {
			// Uncovered, the prefix's no-route columns stay no route.
			e.vec = e.raw
			if cover, _, ok := w.cover(r.pfx); ok {
				copy(w.work, w.vec.vec(e.raw))
				up := w.vec.vec(cover.vec)
				for c, nh := range w.work {
					if !nh.IsValid() {
						w.work[c] = up[c]
					}
				}
				e.vec = w.vec.intern(w.work)
			}
			w.entries[r.pfx] = e
		}
		if e.vec != r.old {
			ops = append(ops, op{pfx: r.pfx, vec: e.vec})
		}
	}
	return ops
}

// cover returns the entry and length of the longest installed prefix
// strictly shorter than pfx that contains it, and false when nothing
// covers it. Entry keys are canonical (masked) prefixes, so one map
// probe per length some installed prefix has decides it.
func (w *writer) cover(pfx netip.Prefix) (entry, int, bool) {
	for bits := pfx.Bits() - 1; bits >= 0; bits-- {
		if w.lens[bits] == 0 {
			continue
		}
		q, _ := pfx.Addr().Prefix(bits) // bits is in range for pfx's family
		if e, ok := w.entries[q]; ok {
			return e, bits, true
		}
	}
	return entry{}, 0, false
}

// patch applies ops to a fork of the plane's trie. A withdrawal
// reverts to its cover's effective vector in the post-publish set — the
// authoritative answer to "what is the next longest match once this
// prefix is gone".
func (w *writer) patch(ops []op) {
	t := w.trie.Fork()
	for _, o := range ops {
		if o.vec != 0 {
			t.Insert(o.pfx, o.vec)
			continue
		}
		cover, bits, _ := w.cover(o.pfx)
		t.Withdraw(o.pfx, cover.vec, bits)
	}
	w.trie = t
	w.deltas++
}

// compile rebuilds the plane's trie and vector table from the installed
// set, re-interning every entry's vectors into the fresh table.
func (w *writer) compile() {
	rows := make([]row, 0, len(w.entries))
	//vnslint:maprange build sorts the rows before it reads them
	for pfx, e := range w.entries {
		rows = append(rows, row{pfx: pfx, vec: w.vec.vec(e.vec)})
	}
	old := w.vec
	w.trie, w.vec = build(rows, len(w.engines))
	for _, r := range rows {
		e := w.entries[r.pfx]
		e.vec = r.id
		if e.raw != 0 {
			e.raw = w.vec.intern(old.vec(e.raw))
		}
		w.entries[r.pfx] = e
	}
	w.deltas = 0
}

// store publishes a new FIB header to every moved column, counting the
// publish in each column's stats (a skip in every other's), and returns
// the lowest moved column's.
func (w *writer) store(full bool, took time.Duration) *FIB {
	w.vec.shared = true
	var out *FIB
	for c, eng := range w.engines {
		s := &w.stats[c]
		if !w.moved[c] {
			s.SkippedCompiles++
			continue
		}
		f := &FIB{trie: w.trie, nexthops: w.vec.nexthops, index: w.vec.index, cols: len(w.engines), col: c,
			gen: eng.cur.Load().gen + 1, prefixes: w.counts[c], compile: took, deltas: w.deltas}
		if full {
			s.Compiles++
			s.LastCompile = took
		} else {
			s.DeltaCompiles++
			s.LastDelta = took
		}
		eng.cur.Store(f)
		if out == nil {
			out = f
		}
	}
	return out
}

// Stats returns a snapshot of the column's counters plus its published
// FIB's size and generation.
func (p *Publisher) Stats() Stats {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	s := p.w.stats[p.col]
	f := p.w.engines[p.col].cur.Load()
	s.Generation = f.Generation()
	s.Prefixes = f.Size()
	return s
}
