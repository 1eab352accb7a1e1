package rib

import (
	"net/netip"
	"slices"
	"testing"

	"vns/internal/bgp"
	"vns/internal/loss"
)

// routeFor builds a deterministic candidate for prefix from peer n,
// with a local pref knob so tests can order candidates precisely.
func routeFor(pfx netip.Prefix, peer int, lp uint32) *Route {
	id := netip.AddrFrom4([4]byte{10, 0, 0, byte(peer)})
	return &Route{
		Prefix:   pfx,
		Attrs:    bgp.Attrs{LocalPref: lp, HasLocalPref: true, NextHop: id},
		EBGP:     true,
		PeerAS:   uint16(100 + peer),
		PeerID:   id,
		PeerAddr: id,
	}
}

// TestApplyBatchIncremental is the table-driven incremental-recompute
// suite: each case sets up a two-candidate prefix (peer 1 at lp 200
// best, peer 2 at lp 100 backup) and applies one batch, checking the
// changed-set and resulting best against what sequential Upsert/
// Withdraw semantics require.
func TestApplyBatchIncremental(t *testing.T) {
	pfx := batchPfx
	for _, tc := range batchCases() {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable()
			tbl.ApplyBatch(batchSetup())

			changed := tbl.ApplyBatch(tc.ops())
			if !slices.Equal(changed, tc.wantChanged) {
				t.Fatalf("changed = %v, want %v", changed, tc.wantChanged)
			}
			best := tbl.Best(pfx)
			if tc.wantBest == 0 {
				if best != nil {
					t.Fatalf("best = %v, want prefix deleted", best)
				}
				if tbl.Len() != 0 {
					t.Errorf("Len() = %d, want 0", tbl.Len())
				}
				return
			}
			wantID := netip.AddrFrom4([4]byte{10, 0, 0, byte(tc.wantBest)})
			if best == nil || best.PeerID != wantID {
				t.Fatalf("best = %v, want peer %d", best, tc.wantBest)
			}
		})
	}
}

// batchPfx is the two-candidate prefix every batch fixture starts from.
var batchPfx = prefix("203.0.113.0/24")

// batchSetup installs the fixtures' starting state: peer 1 at lp 200
// best, peer 2 at lp 100 backup.
func batchSetup() []Op {
	return []Op{Announce(routeFor(batchPfx, 1, 200)), Announce(routeFor(batchPfx, 2, 100))}
}

type batchCase struct {
	name        string
	ops         func() []Op
	wantChanged []netip.Prefix
	wantBest    int // peer number of expected best; 0 = prefix gone
}

func batchCases() []batchCase {
	pfx := batchPfx
	other := prefix("198.51.100.0/24")
	return []batchCase{
		{
			name: "withdraw-of-best",
			ops: func() []Op {
				r := routeFor(pfx, 1, 200)
				return []Op{WithdrawOp(pfx, r.PeerID, r.PeerAddr)}
			},
			wantChanged: []netip.Prefix{pfx},
			wantBest:    2,
		},
		{
			name: "withdraw-of-backup-no-change",
			ops: func() []Op {
				r := routeFor(pfx, 2, 100)
				return []Op{WithdrawOp(pfx, r.PeerID, r.PeerAddr)}
			},
			wantChanged: nil,
			wantBest:    1,
		},
		{
			name:        "announce-better",
			ops:         func() []Op { return []Op{Announce(routeFor(pfx, 3, 300))} },
			wantChanged: []netip.Prefix{pfx},
			wantBest:    3,
		},
		{
			name:        "announce-worse-no-change",
			ops:         func() []Op { return []Op{Announce(routeFor(pfx, 3, 50))} },
			wantChanged: nil,
			wantBest:    1,
		},
		{
			name:        "reannounce-identical-no-change",
			ops:         func() []Op { return []Op{Announce(routeFor(pfx, 1, 200))} },
			wantChanged: nil,
			wantBest:    1,
		},
		{
			name: "coalesce-announce-then-withdraw",
			ops: func() []Op {
				// Announce a would-be-best route and withdraw it in the
				// same batch: the withdrawal wins, nothing changes.
				r := routeFor(pfx, 3, 999)
				return []Op{Announce(r), WithdrawOp(pfx, r.PeerID, r.PeerAddr)}
			},
			wantChanged: nil,
			wantBest:    1,
		},
		{
			name: "coalesce-withdraw-then-reannounce",
			ops: func() []Op {
				// Withdraw the best and re-announce it identically in one
				// batch: last writer wins, best is unchanged by value.
				r := routeFor(pfx, 1, 200)
				return []Op{WithdrawOp(pfx, r.PeerID, r.PeerAddr), Announce(r)}
			},
			wantChanged: nil,
			wantBest:    1,
		},
		{
			name: "coalesce-flap-to-new-value",
			ops: func() []Op {
				// Multiple announces of the same slot in one batch: only
				// the final attributes land, one reselect, one change.
				return []Op{
					Announce(routeFor(pfx, 1, 300)),
					Announce(routeFor(pfx, 1, 400)),
					Announce(routeFor(pfx, 1, 500)),
				}
			},
			wantChanged: []netip.Prefix{pfx},
			wantBest:    1,
		},
		{
			name: "multi-prefix-sorted-changed-set",
			ops: func() []Op {
				return []Op{
					Announce(routeFor(pfx, 3, 900)),
					Announce(routeFor(other, 3, 900)),
				}
			},
			// 198.51.100.0/24 sorts before 203.0.113.0/24.
			wantChanged: []netip.Prefix{other, pfx},
			wantBest:    3,
		},
		{
			name: "withdraw-last-candidate-deletes-prefix",
			ops: func() []Op {
				r1, r2 := routeFor(pfx, 1, 200), routeFor(pfx, 2, 100)
				return []Op{
					WithdrawOp(pfx, r1.PeerID, r1.PeerAddr),
					WithdrawOp(pfx, r2.PeerID, r2.PeerAddr),
				}
			},
			wantChanged: []netip.Prefix{pfx},
			wantBest:    0,
		},
		{
			name: "withdraw-unknown-noop",
			ops: func() []Op {
				r := routeFor(pfx, 9, 0)
				return []Op{WithdrawOp(pfx, r.PeerID, r.PeerAddr)}
			},
			wantChanged: nil,
			wantBest:    1,
		},
	}
}

// TestApplyBatchMatchesSequential cross-checks batched application
// against the op-at-a-time oracle (oracle_test.go) on randomized
// workloads of IPv4, IPv6 and 4-in-6 prefixes: same final table,
// candidate order included, and the batch's changed-set equal to the
// sorted set of prefixes whose best differs by value across the batch.
func TestApplyBatchMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := loss.NewRNG(seed)
		batched, sequential := NewTable(), NewTable()
		for round := 0; round < 50; round++ {
			ops := randomOps(rng, 1+int(rng.Float64()*20))
			changed, want := batched.ApplyBatch(ops), applySequential(sequential, ops)
			if !slices.Equal(changed, want) {
				t.Fatalf("seed %d round %d: changed %v, sequential walk says %v", seed, round, changed, want)
			}
			assertTablesEqual(t, batched, sequential)
		}
	}
}

// randomOps builds a batch over a clustered universe of prefixes and
// peers so replacements, withdrawals of absent slots, and intra-batch
// flaps all occur. Most prefixes are IPv4, in four /8s spread over the
// address space; the rest are IPv6 and 4-in-6, which sort after every
// IPv4 prefix.
func randomOps(rng *loss.RNG, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		v4 := netip.AddrFrom4([4]byte{byte(10 + 64*int(rng.Float64()*4)), byte(rng.Float64() * 8), byte(rng.Float64() * 4 * 64), 0})
		bits := 16 + int(rng.Float64()*9)
		pfx := netip.PrefixFrom(v4, bits)
		switch f := rng.Float64(); {
		case f < 0.15:
			pfx = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Float64() * 4), byte(rng.Float64() * 8)}), 16+bits)
		case f < 0.25:
			pfx = netip.PrefixFrom(netip.AddrFrom16(v4.As16()), 96+bits)
		}
		pfx = pfx.Masked()
		peer := 1 + int(rng.Float64()*5)
		if rng.Float64() < 0.35 {
			id := netip.AddrFrom4([4]byte{10, 0, 0, byte(peer)})
			ops = append(ops, WithdrawOp(pfx, id, id))
			continue
		}
		ops = append(ops, Announce(routeFor(pfx, peer, uint32(100+int(rng.Float64()*400)))))
	}
	return ops
}

// assertTablesEqual requires byte-match equivalence: same prefix list
// in the same order, same best route by value, same candidate lists in
// the same order.
func assertTablesEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: got %d, want %d", got.Len(), want.Len())
	}
	gp, wp := got.Prefixes(), want.Prefixes()
	if len(gp) != len(wp) {
		t.Fatalf("Prefixes: got %d, want %d", len(gp), len(wp))
	}
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("Prefixes[%d]: got %v, want %v (order must match)", i, gp[i], wp[i])
		}
		if gb, wb := got.Best(gp[i]), want.Best(wp[i]); !gb.Equal(wb) {
			t.Fatalf("Best(%v): got %v, want %v", gp[i], gb, wb)
		}
		gc, wc := got.Candidates(gp[i]), want.Candidates(wp[i])
		if !slices.EqualFunc(gc, wc, (*Route).Equal) {
			t.Fatalf("Candidates(%v): got %v, want %v (order must match)", gp[i], gc, wc)
		}
	}
}

// BenchmarkRIBChurn measures batched UPDATE churn against a full-scale
// table: each op is a batch of 16 announce/withdraw transitions over a
// 100k-prefix Loc-RIB with 4 candidates per prefix, the sort +
// walk-and-reselect path a route reflector runs per burst.
func BenchmarkRIBChurn(b *testing.B) {
	tbl := NewTable()
	rng := loss.NewRNG(0x51B)
	prefixes := make([]netip.Prefix, 0, 100_000)
	var load []Op
	for a := 0; a < 2; a++ {
		for x := 0; x < 196; x++ {
			for y := 0; y < 255 && len(prefixes) < 100_000; y++ {
				pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + a), byte(x), byte(y), 0}), 24)
				prefixes = append(prefixes, pfx)
				for peer := 1; peer <= 4; peer++ {
					load = append(load, Announce(routeFor(pfx, peer, uint32(100+peer))))
				}
			}
		}
	}
	tbl.ApplyBatch(load)
	b.ReportMetric(float64(tbl.Len()), "prefixes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := make([]Op, 0, 16)
		for j := 0; j < 16; j++ {
			pfx := prefixes[int(rng.Float64()*float64(len(prefixes)))]
			peer := 1 + (i+j)%4
			if j%4 == 0 {
				id := netip.AddrFrom4([4]byte{10, 0, 0, byte(peer)})
				ops = append(ops, WithdrawOp(pfx, id, id))
			} else {
				ops = append(ops, Announce(routeFor(pfx, peer, uint32(100+(i+j)%400))))
			}
		}
		tbl.ApplyBatch(ops)
	}
}
