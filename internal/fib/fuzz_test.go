package fib

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"testing"

	"vns/internal/detsort"
	"vns/internal/loss"
)

// FuzzFIB differentially tests the compiled trie against the reference
// linear LPM: a pseudo-random prefix set (seeded by the fuzz inputs) is
// compiled and probed with random addresses, then mutated through a
// randomized sequence of upserts and withdrawals published one prefix
// at a time through a Publisher — whose publishes must stay equivalent to a linear scan
// over the same mutated entry set at every step.
func FuzzFIB(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(128))
	f.Add(uint64(42), uint16(512), uint16(64))
	f.Add(uint64(0xDEADBEEF), uint16(3), uint16(300))
	f.Add(uint64(7), uint16(0), uint16(50))

	f.Fuzz(func(t *testing.T, seed uint64, numPrefixes, numOps uint16) {
		if numPrefixes > 4096 {
			numPrefixes = 4096
		}
		if numOps > 1024 {
			numOps = 1024
		}
		rng := loss.NewRNG(seed)

		// Phase 1: static equivalence on a random table.
		entries := randomEntries(rng, int(numPrefixes))
		fib := Compile(entries, 1)
		lin := NewLinear(entries)
		for i := 0; i < 256; i++ {
			addr := randomAddr(rng)
			gotNH, gotOK := fib.Lookup(addr)
			wantNH, wantOK := lin.Lookup(addr)
			if gotOK != wantOK || gotNH != wantNH {
				t.Fatalf("static: Lookup(%v): trie=%v,%v linear=%v,%v", addr, gotNH, gotOK, wantNH, wantOK)
			}
		}

		// Phase 2: equivalence across upsert/withdraw-driven publishes,
		// read through the Engine the Publisher feeds.
		table := make(map[netip.Prefix]NextHop, len(entries))
		for _, e := range entries {
			table[e.Prefix.Masked()] = e.NextHop
		}
		eng := NewEngine(1, nil)
		pub := eng.Publisher()
		pub.Publish(entriesOf(table))

		for op := 0; op < int(numOps); op++ {
			var dirty netip.Prefix
			if rng.Float64() < 0.4 && len(table) > 0 {
				// Withdraw a random existing prefix (deterministic pick:
				// n-th map key by iteration is fine — equivalence is
				// checked against the same mutated table either way).
				n := int(rng.Float64() * float64(len(table)))
				for p := range table {
					if n == 0 {
						dirty = p
						break
					}
					n--
				}
				delete(table, dirty)
			} else {
				e := randomEntries(rng, 1)
				if len(e) == 0 {
					continue
				}
				dirty = e[0].Prefix.Masked()
				table[dirty] = e[0].NextHop
			}
			pub.Publish(decided(table, dirty))

			// Spot-check equivalence after the recompile: addresses near
			// the mutated prefix plus a few random ones.
			ref := NewLinear(entriesOf(table))
			probes := []netip.Addr{dirty.Addr(), randomAddr(rng), randomAddr(rng)}
			for _, addr := range probes {
				gotNH, gotOK := eng.Lookup(addr)
				wantNH, wantOK := ref.Lookup(addr)
				if gotOK != wantOK || gotNH != wantNH {
					t.Fatalf("op %d (dirty %v): Lookup(%v): trie=%v,%v linear=%v,%v",
						op, dirty, addr, gotNH, gotOK, wantNH, wantOK)
				}
			}
		}
	})
}

// FuzzSharedFIB is the shared plane's differential oracle. A plane of
// one to eleven columns is fed the way vns.Forwarding feeds it: a row
// table of next hops per column, some of them no route (a prefix falls
// through to its cover there), and batches over a pool of nested
// prefixes interleaved with row-table replacements. A point batch
// points each touched prefix at a row (Repoint): one other prefixes
// use, a new one appended to the table, or, after a replacement, a row
// no prefix has pointed at since, rewritten in place as a freed row is;
// some points withdraw, and now and then a batch is over
// deltaThreshold. A replacement (Resolve) deals every row new next
// hops. After every publish, at every column, a lookup through the
// engine must equal a single-column Compile of the column's effective
// decisions — each installed prefix's row's next hop there, where it
// has one — probed at the first and last address of every pool prefix,
// and the linear LPM at the touched prefixes and random addresses; Size
// must count the column's routes, and a column's generation moves
// exactly when one of its routes did. A replacement must touch no trie
// and compile nothing. The FIBs of the previous generation must still
// answer as they did, and one point batch, chosen by the seed, is due a
// compaction and must compile in full.
func FuzzSharedFIB(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint16(64), uint16(24))
	f.Add(uint64(42), uint8(2), uint16(300), uint16(12))
	f.Add(uint64(7), uint8(0), uint16(32), uint16(40))
	f.Add(uint64(0xC0FFEE), uint8(4), uint16(8), uint16(64))
	f.Add(uint64(0x5EED), uint8(10), uint16(24), uint16(96))

	f.Fuzz(func(t *testing.T, seed uint64, colsIn uint8, numPrefixes, numBatches uint16) {
		cols := 1 + int(colsIn)%11
		numPrefixes = min(numPrefixes, 512)
		numBatches = min(numBatches, 96)
		rng := loss.NewRNG(seed)
		var pool []netip.Prefix
		for _, e := range randomEntries(rng, int(numPrefixes)) {
			pool = append(pool, e.Prefix.Masked())
		}
		slices.SortFunc(pool, detsort.PrefixCompare)
		pool = slices.Compact(pool)
		if len(pool) == 0 {
			return
		}

		pops := make([]int, cols)
		for c := range pops {
			pops[c] = c + 1
		}
		engines := NewEngines(pops, nil)
		pub := engines[0].Publisher()
		// hop deals a next hop: a quarter no route, mostly one of eight,
		// otherwise one no table has held.
		fresh := 0
		hop := func() NextHop {
			switch x := rng.Float64(); {
			case x < 0.25:
				return NextHop{}
			case x < 0.85:
				return nh(1 + int(rng.Float64()*8))
			}
			fresh++
			h := nh(1 + int(rng.Float64()*11))
			h.Neighbor = 100 + fresh
			return h
		}
		var rows []NextHop
		deal := func(row []NextHop) {
			for c := range row {
				row[c] = hop()
			}
		}
		pointed := map[netip.Prefix]int32{} // each installed prefix's row
		// free holds the rows no prefix pointed at when the table was
		// last replaced and none has since: a caller may rewrite them.
		var free []int32
		models := func() []map[netip.Prefix]NextHop {
			out := make([]map[netip.Prefix]NextHop, cols)
			for c := range out {
				out[c] = map[netip.Prefix]NextHop{}
			}
			for p, r := range pointed {
				for c := range cols {
					if h := rows[int(r-1)*cols+c]; h.IsValid() {
						out[c][p] = h
					}
				}
			}
			return out
		}
		compact := 1 + int(rng.Float64()*float64(numBatches))
		prev := make([]*FIB, cols)
		prevModels := models()
		for b := 0; b < int(numBatches); b++ {
			for c, eng := range engines {
				prev[c] = eng.Current()
			}
			var touched []netip.Prefix
			if b > 0 && rng.Float64() < 0.3 {
				// A re-resolution: every row dealt anew, in a new table.
				rows = slices.Clone(rows)
				deal(rows)
				live := map[int32]bool{}
				for _, r := range pointed {
					live[r] = true
				}
				free = free[:0]
				for r := int32(1); int(r)*cols <= len(rows); r++ {
					if !live[r] {
						free = append(free, r)
					}
				}
				trie, compiles := pub.w.trie, pub.Stats().Compiles
				pub.Resolve(rows)
				if pub.w.trie != trie || pub.Stats().Compiles != compiles {
					t.Fatalf("batch %d: a re-resolution touched the trie", b)
				}
			} else {
				touched = pool
				if b > 0 {
					n := 1 + int(rng.Float64()*8)
					if rng.Float64() < 0.1 {
						n = deltaThreshold + 16
					}
					touched = nil
					for range n {
						touched = append(touched, pool[int(rng.Float64()*float64(len(pool)))])
					}
					slices.SortFunc(touched, detsort.PrefixCompare)
					touched = slices.Compact(touched)
				}
				points := make([]Point, 0, len(touched))
				for _, p := range touched {
					var r int32
					switch x := rng.Float64(); {
					case x < 0.15: // withdrawn
					case x < 0.5 && len(pointed) > 0: // a row in use
						in := detsort.KeysFunc(pointed, detsort.PrefixCompare)
						r = pointed[in[int(rng.Float64()*float64(len(in)))]]
					case x < 0.65 && len(free) > 0:
						r, free = free[len(free)-1], free[:len(free)-1]
						deal(rows[int(r-1)*cols : int(r)*cols])
					default:
						rows = append(rows, make([]NextHop, cols)...)
						deal(rows[len(rows)-cols:])
						r = int32(len(rows) / cols)
					}
					if r == 0 {
						delete(pointed, p)
					} else {
						pointed[p] = r
						free = slices.DeleteFunc(free, func(q int32) bool { return q == r })
					}
					points = append(points, Point{Prefix: p, Row: r})
				}
				if b == compact {
					pub.w.deltas = deltaCompactAfter
				}
				pub.Repoint(points, rows)
			}

			cur := models()
			moved := false
			for c, eng := range engines {
				// The first publish is the initial download: it moves
				// every column.
				changed := b == 0 || !maps.Equal(cur[c], prevModels[c])
				moved = moved || changed
				if got, want := eng.Current().Generation(), prev[c].Generation(); changed && got != want+1 || !changed && got != want {
					t.Fatalf("batch %d column %d: generation %d -> %d, changed %v", b, c, want, got, changed)
				}
				if eng.Current().Size() != len(cur[c]) {
					t.Fatalf("batch %d column %d: Size() = %d, want %d", b, c, eng.Current().Size(), len(cur[c]))
				}
				checkColumn(t, eng.Current(), cur[c], pool, touched, rng, fmt.Sprintf("batch %d column %d", b, c))
				checkColumn(t, prev[c], prevModels[c], pool, nil, nil, fmt.Sprintf("batch %d column %d before it", b, c))
			}
			if b == compact && touched != nil && moved && pub.w.deltas != 0 {
				t.Fatalf("batch %d: a publish due a compaction patched (%d deltas)", b, pub.w.deltas)
			}
			prevModels = cur
		}
	})
}

// checkColumn compares one column's FIB against a single-column
// Compile of model at the first and last address of every pool prefix,
// and, when rng is set, against the linear LPM over model at the
// touched prefixes' addresses and random ones.
func checkColumn(t *testing.T, got *FIB, model map[netip.Prefix]NextHop, pool, touched []netip.Prefix, rng *loss.RNG, tag string) {
	t.Helper()
	entries := entriesOf(model)
	probe := func(ref interface {
		Lookup(netip.Addr) (NextHop, bool)
	}, addr netip.Addr, what string) {
		gotNH, gotOK := got.Lookup(addr)
		wantNH, wantOK := ref.Lookup(addr)
		if gotOK != wantOK || gotNH != wantNH {
			t.Fatalf("%s: Lookup(%v) = %v,%v; %s %v,%v", tag, addr, gotNH, gotOK, what, wantNH, wantOK)
		}
	}
	ref := Compile(entries, 0)
	for _, p := range pool {
		probe(ref, p.Addr(), "compiled column")
		probe(ref, lastAddrOf(p), "compiled column")
	}
	if rng == nil {
		return
	}
	lin := NewLinear(entries)
	for _, p := range touched {
		probe(lin, p.Addr(), "linear")
		probe(lin, lastAddrOf(p), "linear")
	}
	for range 32 {
		probe(lin, randomAddr(rng), "linear")
	}
}
