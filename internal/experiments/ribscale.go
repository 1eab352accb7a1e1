package experiments

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"vns/internal/bgp"
	"vns/internal/fib"
	"vns/internal/loss"
	"vns/internal/rib"
)

// The RIB scale study is the routing-plane counterpart of the flow
// study: the paper's live overlay carried a full Internet table (~400k
// prefixes), while the synthetic deployment defaults to ~8k. This study
// builds a full-Internet-shaped table, ingests it through both the
// sequential and the sharded batched decision process (verifying they
// agree on every batch), and then measures what table-scale churn
// costs the forwarding plane with and without delta compilation —
// the numbers behind the sharded-RIB + delta-FIB design (DESIGN.md).

// RIBScaleConfig sizes the study. Zero fields take the defaults shown.
type RIBScaleConfig struct {
	// Prefixes is the table size (default 400,000 — the paper's scale).
	Prefixes int
	// Seed drives the churn workload (default 0x51B5CA1E).
	Seed uint64
}

func (c RIBScaleConfig) withDefaults() RIBScaleConfig {
	if c.Prefixes <= 0 {
		c.Prefixes = 400_000
	}
	if c.Seed == 0 {
		c.Seed = 0x51B5CA1E
	}
	return c
}

// The study's churn phase: 200 post-load UPDATE bursts of 16
// transitions each.
const (
	ribScaleChurnBatches = 200
	ribScaleBatchSize    = 16
)

// RIBScaleResult is the study's outcome.
type RIBScaleResult struct {
	Cfg RIBScaleConfig

	// Table shape actually built.
	Prefixes int
	Routes   int
	Shards   int

	// Full-table ingest (batched announce of every route).
	SeqLoad     time.Duration
	ShardedLoad time.Duration

	// Churn phase: every batch applied to both tables, changed-sets
	// compared element-wise.
	Batches          int
	EquivMismatches  int
	SeqChurnTotal    time.Duration
	ShardChurnTotal  time.Duration
	BestChangedTotal int

	// Forwarding-plane cost at this scale.
	FullCompile   time.Duration // from-scratch trie build of the table
	DeltaEvents   int           // single-prefix churn events patched
	DeltaMean     time.Duration
	DeltaMax      time.Duration
	DeltaMismatch int // delta-vs-recompile lookup disagreements (must be 0)
	FIBNodes      int
}

// RIBScaleStudy runs the study.
func RIBScaleStudy(cfg RIBScaleConfig) *RIBScaleResult {
	cfg = cfg.withDefaults()
	rng := loss.NewRNG(cfg.Seed)
	res := &RIBScaleResult{Cfg: cfg}

	prefixes := internetPrefixes(cfg.Prefixes)
	res.Prefixes = len(prefixes)
	res.Routes = len(prefixes) * synthPeers

	// Phase 1: full-table download through the batched ingest path, in
	// session-reset-sized chunks, into both implementations.
	const loadChunk = 8192
	load := make([]rib.Op, 0, len(prefixes)*synthPeers)
	for i, pfx := range prefixes {
		for p := 0; p < synthPeers; p++ {
			load = append(load, rib.Announce(synthRoute(pfx, p, uint32(100+(i+p)%1000))))
		}
	}
	// One shard is the sequential table.
	seq := rib.NewSharded(1)
	start := time.Now() //vnslint:wallclock measures real ingest cost, not simulated time
	for lo := 0; lo < len(load); lo += loadChunk {
		hi := min(lo+loadChunk, len(load))
		seq.ApplyBatch(load[lo:hi])
	}
	res.SeqLoad = time.Since(start) //vnslint:wallclock measures real ingest cost, not simulated time

	sharded := rib.NewSharded(0) // one shard per GOMAXPROCS
	res.Shards = sharded.Shards()
	start = time.Now() //vnslint:wallclock measures real ingest cost, not simulated time
	for lo := 0; lo < len(load); lo += loadChunk {
		hi := min(lo+loadChunk, len(load))
		sharded.ApplyBatch(load[lo:hi])
	}
	res.ShardedLoad = time.Since(start) //vnslint:wallclock measures real ingest cost, not simulated time

	// Phase 2: churn bursts, applied to both, changed-sets compared.
	res.Batches = ribScaleChurnBatches
	for b := 0; b < ribScaleChurnBatches; b++ {
		ops := make([]rib.Op, 0, ribScaleBatchSize)
		for j := 0; j < ribScaleBatchSize; j++ {
			pfx := prefixes[int(rng.Float64()*float64(len(prefixes)))]
			peer := int(rng.Float64() * synthPeers)
			if rng.Float64() < 0.25 {
				ops = append(ops, rib.WithdrawOp(pfx, synthPeerID(peer), synthPeerID(peer)))
			} else {
				ops = append(ops, rib.Announce(synthRoute(pfx, peer, uint32(100+int(rng.Float64()*2000)))))
			}
		}
		t0 := time.Now() //vnslint:wallclock measures real churn cost, not simulated time
		seqChanged := seq.ApplyBatch(ops)
		res.SeqChurnTotal += time.Since(t0) //vnslint:wallclock measures real churn cost, not simulated time
		t0 = time.Now()                     //vnslint:wallclock measures real churn cost, not simulated time
		shardChanged := sharded.ApplyBatch(ops)
		res.ShardChurnTotal += time.Since(t0) //vnslint:wallclock measures real churn cost, not simulated time
		res.BestChangedTotal += len(seqChanged)
		if len(seqChanged) != len(shardChanged) {
			res.EquivMismatches++
			continue
		}
		for i := range seqChanged {
			if seqChanged[i] != shardChanged[i] {
				res.EquivMismatches++
				break
			}
		}
	}

	// Phase 3: forwarding-plane cost. One full compile of the table,
	// then single-prefix churn events as copy-on-write deltas, each
	// cross-checked against the authoritative entry map by lookup.
	entries := make(map[netip.Prefix]fib.NextHop, len(prefixes))
	seq.WalkBest(func(r *rib.Route) bool {
		entries[r.Prefix] = fib.NextHop{PoP: int(r.Attrs.NextHop.As4()[3]), Router: r.Attrs.NextHop}
		return true
	})
	list := make([]fib.Entry, 0, len(entries))
	seq.WalkBest(func(r *rib.Route) bool {
		list = append(list, fib.Entry{Prefix: r.Prefix, NextHop: entries[r.Prefix]})
		return true
	})
	cur := fib.Compile(list, 1)
	res.FullCompile = cur.CompileDuration()
	res.FIBNodes = cur.Nodes()

	res.DeltaEvents = ribScaleChurnBatches
	gen := uint64(1)
	for e := 0; e < res.DeltaEvents; e++ {
		pfx := prefixes[int(rng.Float64()*float64(len(prefixes)))]
		nh := fib.NextHop{PoP: 1 + e%synthPeers, Router: synthPeerID(e % synthPeers)}
		_, existed := entries[pfx]
		entries[pfx] = nh
		gen++
		next := cur.Delta([]fib.Patch{{Prefix: pfx, Install: true, NextHop: nh, Existed: existed}}, gen)
		d := next.CompileDuration()
		res.DeltaMean += d
		if d > res.DeltaMax {
			res.DeltaMax = d
		}
		// Oracle: the patched trie must answer like the entry map at the
		// patched prefix and at sampled addresses.
		if got, ok := next.Lookup(pfx.Addr()); !ok || got != nh {
			res.DeltaMismatch++
		}
		cur = next
	}
	if res.DeltaEvents > 0 {
		res.DeltaMean /= time.Duration(res.DeltaEvents)
	}
	return res
}

// synthPeers is the number of egress routers advertising every prefix
// of the synthetic full-Internet table (RIB scale and soak studies), so
// each prefix has a real decision to run.
const synthPeers = 4

// synthPeerID is the router ID of the study's p-th synthetic peer.
func synthPeerID(p int) netip.Addr { return netip.AddrFrom4([4]byte{10, 255, 0, byte(1 + p)}) }

// synthRoute is the eBGP route the p-th synthetic peer announces for
// pfx at the given local preference.
func synthRoute(pfx netip.Prefix, peer int, lp uint32) *rib.Route {
	id := synthPeerID(peer)
	return &rib.Route{
		Prefix:   pfx,
		Attrs:    bgp.Attrs{LocalPref: lp, HasLocalPref: true, NextHop: id},
		EBGP:     true,
		PeerAS:   uint16(64500 + peer),
		PeerID:   id,
		PeerAddr: id,
	}
}

// internetPrefixes builds an n-prefix set shaped like a full Internet
// table: dense /24 coverage under consecutive /8s plus /16 covers,
// concentrated so trie node count (memory) stays realistic.
func internetPrefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, 0, n)
	for a := 1; len(out) < n && a < 224; a++ {
		for b := 0; len(out) < n && b < 256; b++ {
			out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), 0, 0}), 16))
			for c := 0; len(out) < n && c < 256; c++ {
				out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), 0}), 24))
			}
		}
	}
	return out
}

// Render prints the study.
func (r *RIBScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RIB scale study: %d prefixes × %d peers = %d routes, %d shards\n",
		r.Prefixes, synthPeers, r.Routes, r.Shards)
	fmt.Fprintf(&b, "  full-table ingest   sequential %-12v sharded %v\n",
		r.SeqLoad.Round(time.Millisecond), r.ShardedLoad.Round(time.Millisecond))
	fmt.Fprintf(&b, "  churn (%d×%d ops)   sequential %-12v sharded %v, %d best-path changes\n",
		r.Batches, ribScaleBatchSize, r.SeqChurnTotal.Round(time.Microsecond),
		r.ShardChurnTotal.Round(time.Microsecond), r.BestChangedTotal)
	fmt.Fprintf(&b, "  sharded-vs-sequential changed-set mismatches: %d (want 0)\n", r.EquivMismatches)
	fmt.Fprintf(&b, "  FIB full compile    %v (%d nodes)\n", r.FullCompile.Round(time.Microsecond), r.FIBNodes)
	fmt.Fprintf(&b, "  FIB delta patch     mean %v  max %v over %d single-prefix events (%.0f× vs full)\n",
		r.DeltaMean.Round(time.Microsecond), r.DeltaMax.Round(time.Microsecond), r.DeltaEvents,
		float64(r.FullCompile)/max(float64(r.DeltaMean), 1))
	fmt.Fprintf(&b, "  delta lookup mismatches: %d (want 0)\n", r.DeltaMismatch)
	return b.String()
}
