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

// deltaThreshold is the number of prefixes whose trie value moved up to
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
	// DeltaCompiles every other publish to it, none of which rebuilt
	// the trie: a copy-on-write patch of the current trie, or a
	// re-resolution (Resolve), which touches no trie. SkippedCompiles
	// counts publishes in which none of the column's next hops moved, so
	// nothing was published to it (the no-spurious-churn fast path).
	Compiles        uint64
	DeltaCompiles   uint64
	SkippedCompiles uint64
	// LastDelta is the duration of the most recent publish counted in
	// DeltaCompiles.
	LastDelta time.Duration
}

// Point is one prefix of a Repoint: the prefix and the id of the row it
// points at in the plane's row table, 0 to withdraw it.
type Point struct {
	Prefix netip.Prefix
	Row    int32
}

// Publisher is one engine's handle on the write side of its plane: the
// engines NewEngines builds together share one writer, so a publish on
// any of their Publishers publishes every column, and Stats reads this
// engine's column. The writer owns the installed prefixes and every
// publish. It decides nothing: the control plane resolves each row at
// each column, and points each prefix at a row. It has one writer — the
// caller serializes publishes, as vns.Forwarding's pass lock does —
// beside any number of readers, which go through the Engines it feeds
// and never block. It batches nothing itself: a caller that wants a
// burst to cost one publish hands it over as one batch (vns.Forwarding
// owns the deployment's debounce).
//
// A plane is fed one of two ways. Repoint and Resolve take the caller's
// row table, whose rows are the caller's path-lists resolved at every
// column (vns.Forwarding). Publish, for a one-column plane, takes
// decided entries and numbers their distinct next hops as its rows
// (hopRows). Either way a publish is one pass of the same writer.
type Publisher struct {
	w   *writer
	col int
}

// writer is a plane's write side. It keeps one trie and one row table
// for every column: a prefix is installed while it points at a row, and
// its trie value is that row's id. On a plane fed by Repoint, a prefix
// with an installed cover points the trie at a composite of its row and
// its cover's trie value instead (composites), which answers the row's
// next hop where the row has a route and the cover's elsewhere; so a
// column's lookups are exactly those of a per-column trie holding only
// that column's routes, and whether a row has a route at a column never
// decides a prefix's trie value: re-resolving the rows (Resolve) moves
// no prefix. A plane fed by Publish holds valid next hops as rows, so
// its prefixes point at their rows.
type writer struct {
	// engines holds each column's published pointer, by column.
	engines []*Engine

	// mu guards the write state against Stats readers.
	mu sync.Mutex
	// trie is the plane's current trie; rows and comps its row table
	// and composites. Every FIB a publish stores shares all three.
	// deltas counts the trie's delta generations since its last full
	// compile.
	trie   lpm.Trie
	rows   []NextHop
	comps  composites
	deltas int
	// hops numbers the next hops of a plane fed by Publish, whose row
	// table it is; nil on a plane fed by Repoint.
	hops *hopRows
	// entries is the installed set, keyed by normalized prefix; lens
	// counts its prefixes of each length, so a cover lookup probes only
	// lengths some prefix has.
	entries map[netip.Prefix]entry
	lens    [33]int
	// sorted holds the installed prefixes in detsort.PrefixCompare
	// order, or nil when one was installed or withdrawn since it was
	// sorted.
	sorted []netip.Prefix
	// refs counts, by row id−1, the installed prefixes pointing at each
	// row; counts is, per column, the number of prefixes with a route
	// there.
	refs   []int32
	counts []int
	stats  []Stats

	// Per-publish buffers, reused by every publish: the columns it
	// moved, the points Publish numbers, the prefixes it re-derives and
	// the trie changes a delta patches.
	moved  []bool
	points []Point
	recs   []rec
	ops    []op
}

// entry is an installed prefix's state.
type entry struct {
	row int32 // the row it points at
	val int32 // its trie value: row, or a composite's id
}

// composites are the writer's composite rows: composite (row, cover)
// has row's next hop at each column where row has a route and the
// next hop of the trie value cover (a row or another composite) at the
// others. A composite's id is −k for the k-th; it is resolved when it
// is first interned and again by each Resolve. A composite no prefix
// points at leaves the index at the next Resolve, whose rows may reuse
// its row's id for another list, and its slot at the next full compile.
type composites struct {
	hops  []NextHop // composite −k's next hops at [(k-1)*cols, k*cols)
	keys  []compKey // by k−1; the zero key once it left the index
	refs  []int32   // by k−1: installed prefixes pointing at it
	index map[compKey]int32
}

// compKey names a composite: a row and its cover's trie value.
type compKey struct{ row, cover int32 }

// rec is a prefix a publish re-derives, with its trie value before the
// publish (0 when it was not installed).
type rec struct {
	pfx netip.Prefix
	old int32
}

// op is one trie change of a delta: install pfx with value val, or
// withdraw it when val is 0.
type op struct {
	pfx netip.Prefix
	val int32
}

// NewEngines builds one engine per 1-based PoP id in pops, all
// forwarding over fabric and fed by one writer: column c of the plane
// is pops[c]'s. Every engine starts at an empty generation-0 FIB.
func NewEngines(pops []int, fabric Fabric) []*Engine {
	cols := len(pops)
	w := &writer{
		engines: make([]*Engine, cols),
		comps:   composites{index: make(map[compKey]int32)},
		counts:  make([]int, cols),
		stats:   make([]Stats, cols),
		moved:   make([]bool, cols),
	}
	empty := Compile(nil, 0)
	for c, pop := range pops {
		e := &Engine{pop: pop, fabric: fabric, pub: &Publisher{w: w, col: c}}
		e.cur.Store(empty)
		w.engines[c] = e
	}
	return w.engines
}

// Publish installs a batch of decided entries on a one-column plane and
// publishes the result before it returns: each distinct next hop is
// one row, and each entry points its prefix at its next hop's row. The
// batch is sorted by detsort.PrefixCompare without duplicates, as
// Repoint's points are; an unsorted batch, or a plane of more columns
// or one Repoint feeds, panics. An entry with an invalid NextHop
// withdraws its prefix, where lookups fall through to its cover.
// Prefixes are normalized as Compile does them: an IPv4-mapped prefix
// installs or withdraws the IPv4 prefix it embeds, and other non-IPv4
// prefixes are ignored. It returns what Repoint does.
func (p *Publisher) Publish(batch []Entry) *FIB {
	w := p.w
	checkSorted(len(batch), func(i int) netip.Prefix { return batch[i].Prefix })
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.engines) != 1 || w.hops == nil && w.entries != nil {
		panic("fib: Publish feeds a one-column plane no Repoint feeds")
	}
	if w.hops == nil {
		w.hops = &hopRows{}
	}
	points := w.points[:0]
	for _, e := range batch {
		pt := Point{Prefix: e.Prefix}
		if e.NextHop.IsValid() {
			pt.Row = w.hops.row(e.NextHop)
		}
		points = append(points, pt)
	}
	f := w.publish(points, w.hops.rows)
	if cap(points) <= deltaThreshold {
		w.points = points[:0] // kept for the next publish, unless a bulk one grew it
	}
	return f
}

// Repoint points each of points' prefixes at its row of rows, the
// plane's row table, and publishes the result before it returns. Row r
// has its next hop at column c at rows[(r-1)*cols+c]; an invalid one
// means no route there, where lookups fall through to the prefix's
// cover. rows extends the table the previous publish was handed, and
// only a row no prefix has pointed at from the last Resolve on (a freed
// one) may hold other next hops than it did there: Resolve alone moves
// the rows prefixes use. Points are sorted by
// detsort.PrefixCompare without duplicates, so a cover is derived
// before the prefixes it contains; an unsorted batch panics, as does a
// plane Publish feeds. Prefixes are normalized as Publish does them.
//
// The first publish is the initial table download and always a full
// compile. A later one publishes the columns where some point's row
// moved a next hop, each through a new FIB header over the one trie: a
// copy-on-write delta when at most deltaThreshold prefixes' trie values
// moved, a full compile otherwise. It returns the lowest moved column's
// FIB (all of a publish's FIBs share its trie and compile duration), or
// nil when no column moved.
func (p *Publisher) Repoint(points []Point, rows []NextHop) *FIB {
	w := p.w
	checkSorted(len(points), func(i int) netip.Prefix { return points[i].Prefix })
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hops != nil {
		panic("fib: Repoint of a plane Publish feeds")
	}
	return w.publish(points, rows)
}

// Resolve replaces the plane's row table with rows, the same rows
// resolved anew (a liveness or IGP change), and publishes the result
// before it returns. It touches no trie and no prefix: each column
// where some row an installed prefix points at moved a next hop gets a
// new header over the current trie, the new table and the composites
// re-resolved over it, counted in DeltaCompiles; a row no installed
// prefix points at may hold anything, and moves nothing. It returns the
// lowest moved column's FIB, or nil when no column moved.
func (p *Publisher) Resolve(rows []NextHop) *FIB {
	w := p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hops != nil {
		panic("fib: Resolve of a plane Publish feeds")
	}
	start := time.Now() //vnslint:wallclock measures real publish cost, not simulated time
	cols := len(w.engines)
	clear(w.moved)
	for i, n := range w.refs {
		if n == 0 {
			continue
		}
		old, cur := w.rows[i*cols:(i+1)*cols], rows[i*cols:(i+1)*cols]
		for c := range old {
			w.move(c, old[c], cur[c], int(n))
		}
	}
	w.rows = rows
	c := &w.comps
	hops := make([]NextHop, len(c.hops))
	for k, key := range c.keys {
		switch {
		case c.refs[k] > 0:
			w.fill(hops, k)
		case key.row != 0:
			delete(c.index, key)
			c.keys[k] = compKey{}
		}
	}
	c.hops = hops
	if !slices.Contains(w.moved, true) {
		w.skip()
		return nil
	}
	return w.store(false, time.Since(start)) //vnslint:wallclock measures real publish cost, not simulated time
}

// Pointed reports whether some installed prefix points at row.
func (p *Publisher) Pointed(row int32) bool {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	return int(row) <= len(p.w.refs) && p.w.refs[row-1] > 0
}

// checkSorted panics unless the n prefixes at returns are sorted by
// detsort.PrefixCompare without duplicates.
func checkSorted(n int, at func(int) netip.Prefix) {
	for i := 1; i < n; i++ {
		if a, b := at(i-1), at(i); detsort.PrefixCompare(a, b) >= 0 {
			panic(fmt.Sprintf("fib: publish batch not sorted and unique at %v, %v", a, b))
		}
	}
}

// publish points each of points' prefixes at its row of rows and
// publishes the columns that moved (Repoint).
func (w *writer) publish(points []Point, rows []NextHop) *FIB {
	// The first publish moves every column off its generation 0.
	first := w.engines[0].cur.Load().Generation() == 0
	if !first && len(points) == 0 {
		return nil
	}
	if w.entries == nil {
		w.entries = make(map[netip.Prefix]entry, len(points))
	}
	w.rows = rows
	clear(w.moved)
	recs := w.recs[:0]
	for _, pt := range points {
		if pfx, ok := normalize(pt.Prefix); ok {
			recs = w.update(recs, pfx, pt.Row)
		}
	}
	recs = w.covered(recs)
	ops := w.derive(recs, slices.Grow(w.ops[:0], len(recs)))
	if cap(recs) <= deltaThreshold {
		// Keep the buffers for the next publish, but not ones grown by
		// a batch that compiles in full anyway.
		w.recs, w.ops = recs[:0], ops[:0]
	}

	moved := first || slices.Contains(w.moved, true)
	if !moved && len(ops) == 0 {
		w.skip()
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
	if !moved {
		// Prefixes moved to rows with the same next hops: the trie
		// changed, but no lookup's answer did.
		w.skip()
		return nil
	}
	if first {
		for c := range w.moved {
			w.moved[c] = true
		}
	}
	return w.store(full, took)
}

// update points one normalized prefix at row. An unchanged prefix
// costs one probe. A changed one marks the columns where its next hop
// moves, adjusts their counts and the rows' refs, stores the new row
// and joins recs with its trie value before the change, which it keeps
// until derive.
func (w *writer) update(recs []rec, pfx netip.Prefix, row int32) []rec {
	e, had := w.entries[pfx]
	if e.row == row {
		return recs
	}
	for c := range w.engines {
		w.move(c, w.hop(e.row, c), w.hop(row, c), 1)
	}
	recs = append(recs, rec{pfx: pfx, old: e.val})
	if had {
		w.refs[e.row-1]--
	}
	if row == 0 {
		delete(w.entries, pfx)
		w.lens[pfx.Bits()]--
		w.sorted = nil
		return recs
	}
	for len(w.refs) < int(row) {
		w.refs = append(w.refs, 0)
	}
	w.refs[row-1]++
	if !had {
		w.lens[pfx.Bits()]++
		w.sorted = nil
	}
	w.entries[pfx] = entry{row: row, val: e.val}
	return recs
}

// hop returns row's next hop at column c, no route for row 0.
func (w *writer) hop(row int32, c int) NextHop {
	if row == 0 {
		return NextHop{}
	}
	return w.rows[int(row-1)*len(w.engines)+c]
}

// move accounts n prefixes' next hop at column c moving from o to n2:
// it marks the column moved and adjusts its count, unless both are the
// same route or both none.
func (w *writer) move(c int, o, n2 NextHop, n int) {
	if o == n2 || !o.IsValid() && !n2.IsValid() {
		return
	}
	w.moved[c] = true
	if o.IsValid() {
		w.counts[c] -= n
	}
	if n2.IsValid() {
		w.counts[c] += n
	}
}

// covered returns recs, the changed prefixes, together with every
// installed prefix one of them contains, whose composite may follow
// its cover's trie value, sorted by detsort.PrefixCompare with one rec
// per prefix: the changed one's, which holds the trie value from before
// the publish. A plane Publish feeds has no composites, so it adds
// nothing there.
func (w *writer) covered(recs []rec) []rec {
	if w.hops == nil && len(recs) > 0 {
		if w.sorted == nil {
			w.sorted = make([]netip.Prefix, 0, len(w.entries))
			//vnslint:maprange sorted below before it is read
			for pfx := range w.entries {
				w.sorted = append(w.sorted, pfx)
			}
			slices.SortFunc(w.sorted, detsort.PrefixCompare)
		}
		for _, r := range recs {
			// A prefix r contains sorts after r, and so does every
			// prefix between them: r's contained prefixes are one run.
			i, _ := slices.BinarySearchFunc(w.sorted, r.pfx, detsort.PrefixCompare)
			for ; i < len(w.sorted) && r.pfx.Contains(w.sorted[i].Addr()); i++ {
				if q := w.sorted[i]; q != r.pfx {
					recs = append(recs, rec{pfx: q, old: w.entries[q].val})
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

// derive sets the trie value of every installed prefix in recs, in
// order, so a cover's is final before the prefixes it covers read it,
// and appends to ops a trie change for each prefix whose value moved.
func (w *writer) derive(recs []rec, ops []op) []op {
	for _, r := range recs {
		e, ok := w.entries[r.pfx]
		if ok {
			e.val = w.value(r.pfx, e.row)
			w.entries[r.pfx] = e
		}
		if e.val != r.old {
			w.retain(r.old, -1)
			w.retain(e.val, 1)
			ops = append(ops, op{pfx: r.pfx, val: e.val})
		}
	}
	return ops
}

// value returns the trie value of installed prefix pfx pointing at row:
// on a plane Repoint feeds, the composite of row and its cover's value
// when something covers it; otherwise row.
func (w *writer) value(pfx netip.Prefix, row int32) int32 {
	if w.hops == nil {
		if cover, _, ok := w.cover(pfx); ok {
			return w.composite(row, cover.val)
		}
	}
	return row
}

// composite returns the id of composite (row, cover), interning it,
// resolved over the current rows, on first sight.
func (w *writer) composite(row, cover int32) int32 {
	c := &w.comps
	key := compKey{row, cover}
	if id, ok := c.index[key]; ok {
		return id
	}
	k := len(c.keys)
	c.keys = append(c.keys, key)
	c.refs = append(c.refs, 0)
	c.hops = slices.Grow(c.hops, len(w.engines))[:len(c.hops)+len(w.engines)]
	w.fill(c.hops, k)
	id := int32(-k - 1)
	c.index[key] = id
	return id
}

// fill resolves the k-th composite into hops, a composite table whose
// earlier composites, its cover among them, are resolved.
func (w *writer) fill(hops []NextHop, k int) {
	cols := len(w.engines)
	key := w.comps.keys[k]
	dst := hops[k*cols : (k+1)*cols]
	up := hops // the cover is a composite before k, or a row
	at := int(-key.cover-1) * cols
	if key.cover > 0 {
		up, at = w.rows, int(key.cover-1)*cols
	}
	for c := range dst {
		if dst[c] = w.hop(key.row, c); !dst[c].IsValid() {
			dst[c] = up[at+c]
		}
	}
}

// retain adds d to the refs of composite val (nothing for a row's id or
// 0).
func (w *writer) retain(val int32, d int32) {
	if val < 0 {
		w.comps.refs[-val-1] += d
	}
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
// reverts to its cover's trie value in the post-publish set — the
// authoritative answer to "what is the next longest match once this
// prefix is gone".
func (w *writer) patch(ops []op) {
	t := w.trie.Fork()
	for _, o := range ops {
		if o.val != 0 {
			t.Insert(o.pfx, o.val)
			continue
		}
		cover, bits, _ := w.cover(o.pfx)
		t.Withdraw(o.pfx, cover.val, bits)
	}
	w.trie = t
	w.deltas++
}

// compile rebuilds the plane's trie and composites from the installed
// set, re-deriving every entry's trie value; a composite no prefix
// points at is dropped.
func (w *writer) compile() {
	w.comps = composites{index: make(map[compKey]int32)}
	prefixes := make([]netip.Prefix, 0, len(w.entries))
	//vnslint:maprange build sorts the prefixes before it reads them
	for pfx := range w.entries {
		prefixes = append(prefixes, pfx)
	}
	w.trie = build(prefixes, func(pfx netip.Prefix) int32 {
		e := w.entries[pfx]
		e.val = w.value(pfx, e.row)
		w.retain(e.val, 1)
		w.entries[pfx] = e
		return e.val
	})
	w.deltas = 0
}

// skip counts a publish that moved no column in every column's stats.
func (w *writer) skip() {
	for c := range w.stats {
		w.stats[c].SkippedCompiles++
	}
}

// store publishes a new FIB header to every moved column, counting the
// publish in each column's stats (a skip in every other's), and returns
// the lowest moved column's.
func (w *writer) store(full bool, took time.Duration) *FIB {
	var index map[NextHop]int32
	if w.hops != nil {
		w.hops.shared = true
		index = w.hops.index
	}
	var out *FIB
	for c, eng := range w.engines {
		s := &w.stats[c]
		if !w.moved[c] {
			s.SkippedCompiles++
			continue
		}
		f := &FIB{trie: w.trie, rows: w.rows, comps: w.comps.hops, index: index, cols: len(w.engines), col: c,
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
