package rib

import (
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"vns/internal/detsort"
)

// ShardedTable is the Loc-RIB, partitioned across per-prefix-range
// shards so batched ingestion runs the decision process on all cores
// (one shard is the sequential table). Sharding is monotone in
// detsort.PrefixCompare order: IPv4 prefixes split by the top 16 bits
// of their address into contiguous ranges, and every other prefix
// (IPv6, 4-in-6) lives in the last shard. So a batch sorted by prefix
// splits into one contiguous run per shard, ops on distinct shards
// touch disjoint state, and concatenating the shards' sorted
// changed-sets or prefix lists in shard order is globally sorted
// without a merge step.
//
// The correctness contract (pinned by TestShardedMatchesSequential and
// exercised under -race) is byte-for-byte equivalence with a single
// shard fed the same batches, and of that shard with an op-at-a-time
// walk (TestOneShardMatchesSequentialOracle): same best routes, same
// changed sets, same iteration order. Sharding is a scheduling change,
// never a semantic one.
//
// Methods follow a single-writer discipline: ApplyBatch itself fans
// out internally, but concurrent ApplyBatch calls (or reads concurrent
// with a batch) need external synchronization: core.Reflector has one
// writer, which its caller serializes.
type ShardedTable struct {
	shards  []*table
	metrics *Metrics
}

// maxShards bounds fan-out; beyond this the per-batch goroutine spawn
// cost outweighs decision-process parallelism.
const maxShards = 64

// NewSharded returns a Loc-RIB split across n shards; n <= 0 selects
// GOMAXPROCS.
func NewSharded(n int) *ShardedTable {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	s := &ShardedTable{shards: make([]*table, n)}
	for i := range s.shards {
		s.shards[i] = newTable()
	}
	return s
}

// shardOf maps a prefix to its shard: an IPv4 prefix by the top 16
// bits of its address, scaled into the shard count, and any other
// prefix to the last shard, since detsort.PrefixCompare orders every
// IPv4 address first. Monotonicity in that order is what keeps per-shard
// sorted output globally sorted. It runs in ApplyBatch's binary search
// and once per lookup, so it must stay allocation-free.
//
//vnslint:hotpath
func (s *ShardedTable) shardOf(p netip.Prefix) int {
	a := p.Addr()
	if !a.Is4() {
		return len(s.shards) - 1
	}
	b := a.As4()
	top := uint32(b[0])<<8 | uint32(b[1])
	return int(top * uint32(len(s.shards)) >> 16)
}

// SetMetrics attaches metrics to every shard (nil detaches); it is not
// safe to call concurrently with mutations. The counters are atomic,
// so parallel shard workers increment them safely; the Prefixes gauge —
// which a single shard would clobber with its local count — is
// re-asserted with the global value after each batch joins.
func (s *ShardedTable) SetMetrics(m *Metrics) {
	s.metrics = m
	for _, t := range s.shards {
		t.metrics = m
	}
}

// ApplyBatch sorts a copy of the batch by prefix, stably so each
// prefix's ops keep their arrival order, and walks each shard's
// contiguous run of it in its own goroutine, but the last run on the
// caller's, which would only wait, so a one-shard batch spawns nothing
// (spawn-and-join: all workers are WaitGroup-joined before return). It
// returns the globally sorted prefixes whose best path changed by
// value — identical to what one shard applying the same ops would
// return.
func (s *ShardedTable) ApplyBatch(ops []Op) []netip.Prefix {
	if len(ops) == 0 {
		return nil
	}
	rest := slices.Clone(ops)
	slices.SortStableFunc(rest, func(a, b Op) int { return detsort.PrefixCompare(a.Prefix, b.Prefix) })
	changed := make([][]netip.Prefix, len(s.shards))
	var wg sync.WaitGroup
	for {
		i := s.shardOf(rest[0].Prefix)
		n, _ := slices.BinarySearchFunc(rest, i+1, func(op Op, shard int) int { return s.shardOf(op.Prefix) - shard })
		if n == len(rest) {
			changed[i] = s.shards[i].apply(rest)
			break
		}
		wg.Add(1)
		go func(run []Op) {
			defer wg.Done()
			changed[i] = s.shards[i].apply(run)
		}(rest[:n])
		rest = rest[n:]
	}
	wg.Wait()
	if m := s.metrics; m != nil {
		m.Prefixes.Set(float64(s.Len()))
	}
	return slices.Concat(changed...)
}

// Len returns the number of prefixes with at least one candidate.
func (s *ShardedTable) Len() int {
	n := 0
	for _, t := range s.shards {
		n += t.Len()
	}
	return n
}

// Best returns the best route for prefix, or nil.
func (s *ShardedTable) Best(prefix netip.Prefix) *Route {
	return s.shards[s.shardOf(prefix)].Best(prefix)
}

// Candidates returns all candidate routes for prefix.
func (s *ShardedTable) Candidates(prefix netip.Prefix) []*Route {
	return s.shards[s.shardOf(prefix)].Candidates(prefix)
}

// Prefixes returns all prefixes in detsort.PrefixCompare order: shard
// ranges are contiguous in that order, so per-shard sorted lists
// concatenate.
func (s *ShardedTable) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, s.Len())
	for _, t := range s.shards {
		out = append(out, t.Prefixes()...)
	}
	return out
}
