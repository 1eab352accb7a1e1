package rib

import (
	"net/netip"
	"runtime"
	"sync"
)

// ShardedTable is the Loc-RIB, partitioned across per-prefix-range
// shards so batched ingestion runs the decision process on all cores
// (one shard is the sequential table). Sharding is
// by the top 16 bits of a prefix's (masked) IPv4 address, split into
// contiguous ranges: every prefix lives in exactly one shard, ops on
// distinct shards touch disjoint state, and — because the ranges are
// contiguous in address order — concatenating the shards' sorted
// changed-sets or prefix lists in shard order is globally sorted
// without a merge step.
//
// The correctness contract (pinned by TestShardedMatchesSequential and
// exercised under -race) is byte-for-byte equivalence with a single
// shard fed the same batches, and of that shard with an op-at-a-time
// walk (TestApplyBatchMatchesSequential): same best routes, same
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

// shardOf maps a prefix to its shard: the top 16 bits of the masked
// address, scaled into the shard count. Contiguity of the resulting
// ranges is what keeps per-shard sorted output globally sorted. It runs
// once per op on the ingest path, so it must stay allocation-free.
//
//vnslint:hotpath
func (s *ShardedTable) shardOf(p netip.Prefix) int {
	a := p.Addr()
	if a.Is4In6() {
		a = a.Unmap()
	}
	if !a.Is4() {
		return 0
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

// ApplyBatch partitions the batch by shard, runs each shard's
// coalesce/mutate/reselect in its own goroutine, but the last non-empty
// shard's on the caller's, which would only wait, so a one-shard batch
// spawns nothing (spawn-and-join: all workers are WaitGroup-joined
// before return), and returns the globally
// sorted prefixes whose best path changed by value — identical to what
// one shard applying the same ops would return.
func (s *ShardedTable) ApplyBatch(ops []Op) []netip.Prefix {
	if len(ops) == 0 {
		return nil
	}
	// A counting pass sizes each shard's run of one backing array, so
	// partitioning allocates twice whatever the batch size.
	var counts [maxShards]int
	last := 0
	for _, op := range ops {
		i := s.shardOf(op.Prefix)
		counts[i]++
		last = max(last, i)
	}
	perShard := make([][]Op, len(s.shards))
	buf := make([]Op, len(ops))
	for i, n := range counts[:len(s.shards)] {
		perShard[i], buf = buf[:0:n], buf[n:]
	}
	for _, op := range ops {
		i := s.shardOf(op.Prefix)
		perShard[i] = append(perShard[i], op)
	}
	changed := make([][]netip.Prefix, len(s.shards))
	var wg sync.WaitGroup
	for i := range last {
		if len(perShard[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			changed[i] = s.shards[i].ApplyBatch(perShard[i])
		}(i)
	}
	changed[last] = s.shards[last].ApplyBatch(perShard[last])
	wg.Wait()
	total := 0
	for _, c := range changed {
		total += len(c)
	}
	out := make([]netip.Prefix, 0, total)
	for _, c := range changed {
		out = append(out, c...)
	}
	if m := s.metrics; m != nil {
		m.Prefixes.Set(float64(s.Len()))
	}
	return out
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

// Prefixes returns all prefixes in globally sorted order: shard ranges
// are contiguous in address order, so per-shard sorted lists
// concatenate.
func (s *ShardedTable) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, s.Len())
	for _, t := range s.shards {
		out = append(out, t.Prefixes()...)
	}
	return out
}
