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

// FuzzSharedFIB is the shared plane's differential oracle. Random
// batches over a pool of nested prefixes are published to a plane of
// one to eleven columns: each prefix gets a decision per column, some of
// them no route (the column falls through to the prefix's cover), some
// rows no route at any column (a withdrawal), next hops both held by the
// vector table and new to it, and now and then a batch over
// deltaThreshold. After every publish, at every column, a lookup through
// the engine must equal a single-column Compile of that column's
// routes alone — probed at the first and last address of every pool
// prefix — and the linear LPM at the touched prefixes and random
// addresses; Size must count the column's routes, and a column's
// generation moves exactly when one of its routes did. The FIBs of the
// previous generation must still answer as they did, and one publish,
// chosen by the seed, is due a compaction and must compile in full.
func FuzzSharedFIB(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint16(64), uint16(24))
	f.Add(uint64(42), uint8(2), uint16(300), uint16(12))
	f.Add(uint64(7), uint8(0), uint16(32), uint16(40))
	f.Add(uint64(0xC0FFEE), uint8(4), uint16(8), uint16(64))

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
		models := make([]map[netip.Prefix]NextHop, cols)
		for c := range models {
			models[c] = map[netip.Prefix]NextHop{}
		}
		// hop deals a next hop: mostly one of eight, so vectors repeat,
		// otherwise one no table has held.
		fresh := 0
		hop := func() NextHop {
			if rng.Float64() < 0.8 {
				return nh(1 + int(rng.Float64()*8))
			}
			fresh++
			h := nh(1 + int(rng.Float64()*11))
			h.Neighbor = 100 + fresh
			return h
		}
		compact := 1 + int(rng.Float64()*float64(numBatches))
		prev := make([]*FIB, cols)
		prevModels := make([]map[netip.Prefix]NextHop, cols)
		for b := 0; b < int(numBatches); b++ {
			touched := pool
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
			for c, eng := range engines {
				prev[c], prevModels[c] = eng.Current(), maps.Clone(models[c])
			}
			batch := make([]Entry, 0, len(touched)*cols)
			for _, p := range touched {
				withdrawn := rng.Float64() < 0.15
				for c := range cols {
					h := NextHop{}
					if !withdrawn && rng.Float64() >= 0.25 {
						h = hop()
					}
					if h.IsValid() {
						models[c][p] = h
					} else {
						delete(models[c], p)
					}
					batch = append(batch, Entry{Prefix: p, NextHop: h})
				}
			}
			if b == compact {
				pub.w.deltas = deltaCompactAfter
			}
			pub.Publish(batch)

			moved := false
			for c, eng := range engines {
				cur := eng.Current()
				// The first publish is the initial download: it moves
				// every column.
				changed := b == 0 || !maps.Equal(models[c], prevModels[c])
				moved = moved || changed
				if got, want := cur.Generation(), prev[c].Generation(); changed && got != want+1 || !changed && got != want {
					t.Fatalf("batch %d column %d: generation %d -> %d, changed %v", b, c, want, got, changed)
				}
				if cur.Size() != len(models[c]) {
					t.Fatalf("batch %d column %d: Size() = %d, want %d", b, c, cur.Size(), len(models[c]))
				}
				checkColumn(t, eng.Current(), models[c], pool, touched, rng, fmt.Sprintf("batch %d column %d", b, c))
				checkColumn(t, prev[c], prevModels[c], pool, nil, nil, fmt.Sprintf("batch %d column %d before it", b, c))
			}
			if b == compact && moved && pub.w.deltas != 0 {
				t.Fatalf("batch %d: a publish due a compaction patched (%d deltas)", b, pub.w.deltas)
			}
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
