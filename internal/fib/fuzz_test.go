package fib

import (
	"net/netip"
	"testing"

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
