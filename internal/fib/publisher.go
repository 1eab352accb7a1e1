package fib

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"vns/internal/detsort"
)

// deltaThreshold is the changed-prefix count up to which a publish is
// a copy-on-write delta patch (FIB.Delta) in place of a full rebuild. Steady-state churn is single-prefix; above
// this size a full compile is both cheaper per prefix and the natural
// compaction point.
const deltaThreshold = 64

// deltaCompactAfter bounds patch drift: after this many consecutive
// delta generations the next publish recompiles from scratch, pruning
// nodes orphaned by withdrawals (a patched trie never frees them).
const deltaCompactAfter = 4096

// Stats is a Publisher's observable state, for operational exposure
// (cmd/vnsd) and tests.
type Stats struct {
	// Generation counts published compiles; the current FIB carries it.
	Generation uint64
	// Prefixes is the number of installed prefixes.
	Prefixes int
	// LastCompile is the duration of the most recent trie build.
	LastCompile time.Duration
	// Compiles counts full trie builds; DeltaCompiles counts publishes
	// that patched the current trie copy-on-write instead (FIB.Delta);
	// SkippedCompiles counts Publish calls whose entries all kept their
	// next hops, so nothing was published (the no-spurious-churn fast
	// path).
	Compiles        uint64
	DeltaCompiles   uint64
	SkippedCompiles uint64
	// LastDelta is the duration of the most recent delta patch.
	LastDelta time.Duration
}

// Publisher owns the write side of a FIB: the installed entry set and
// every publish. It decides nothing: the control plane decides each
// prefix and hands the decisions over in one Publish. It has one
// writer — the caller serializes Publish, as vns.Forwarding's pass lock
// does — beside any number of readers, which go through the Engine it
// feeds and never block. It batches nothing itself: a caller that wants
// a burst to cost one publish hands it over as one batch (vns.Forwarding
// owns the deployment's debounce).
type Publisher struct {
	// eng is the Engine whose published pointer every publish stores.
	eng *Engine

	// mu guards the write state against Stats readers.
	mu sync.Mutex
	// entries is the installed set, keyed by normalized prefix.
	entries map[netip.Prefix]NextHop
	// patches is the one writer's patch buffer, reused by every publish
	// small enough to patch.
	patches []Patch
	gen     uint64
	stats   Stats
}

// Publish installs a batch of decided entries and publishes the result
// before it returns. The batch must be sorted by detsort.PrefixCompare
// without duplicates, so the delta patch applies covers before the
// prefixes they contain; an unsorted batch panics. An entry with an
// invalid NextHop withdraws its prefix. Prefixes are normalized as
// Compile does them: an IPv4-mapped prefix installs or withdraws the
// IPv4 prefix it embeds, and other non-IPv4 prefixes are ignored.
//
// The first publish is the initial table download and always a full
// compile. Later ones publish only when a next hop moved: a
// copy-on-write delta for a small change set, a full compile otherwise.
// Publish returns the published FIB, or nil when nothing moved.
func (p *Publisher) Publish(batch []Entry) *FIB {
	for i := 1; i < len(batch); i++ {
		if detsort.PrefixCompare(batch[i-1].Prefix, batch[i].Prefix) >= 0 {
			panic(fmt.Sprintf("fib: publish batch not sorted and unique at %v, %v", batch[i-1].Prefix, batch[i].Prefix))
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen == 0 {
		p.entries = make(map[netip.Prefix]NextHop, len(batch))
		for _, e := range batch {
			if pfx, ok := normalize(e.Prefix); ok && e.NextHop.IsValid() {
				p.entries[pfx] = e.NextHop
			}
		}
		return p.compileLocked()
	}
	if len(batch) == 0 {
		return nil
	}
	patches := p.patches[:0]
	for _, e := range batch {
		pfx, ok := normalize(e.Prefix)
		if !ok {
			continue
		}
		old, had := p.entries[pfx]
		switch {
		case e.NextHop.IsValid() && (!had || old != e.NextHop):
			p.entries[pfx] = e.NextHop
			patches = append(patches, Patch{Prefix: pfx, Install: true, NextHop: e.NextHop, Existed: had})
		case !e.NextHop.IsValid() && had:
			delete(p.entries, pfx)
			patches = append(patches, Patch{Prefix: pfx, Existed: true})
		}
	}
	if cap(patches) <= deltaThreshold {
		// Keep the buffer for the next publish, but not one grown by a
		// batch that compiles in full anyway.
		p.patches = patches
	}
	switch {
	case len(patches) == 0:
		p.stats.SkippedCompiles++
		return nil
	case p.deltaEligible(len(patches)):
		return p.deltaLocked(patches)
	}
	return p.compileLocked()
}

// deltaEligible reports whether a publish of n changed prefixes should
// patch the published trie instead of rebuilding it.
func (p *Publisher) deltaEligible(n int) bool {
	if n > deltaThreshold {
		return false
	}
	// Compaction: a long run of patches accumulates orphaned nodes, so
	// periodically pay for a fresh build.
	return p.eng.cur.Load().Deltas() < deltaCompactAfter
}

// deltaLocked publishes the patch batch as a copy-on-write delta of the
// current trie. Withdrawals resolve their covering route against the
// post-batch entry set — the authoritative answer to "what is the next
// longest match once this prefix is gone".
func (p *Publisher) deltaLocked(patches []Patch) *FIB {
	for i := range patches {
		if !patches[i].Install {
			patches[i].Cover, patches[i].CoverBits = coverOf(p.entries, patches[i].Prefix)
		}
	}
	p.gen++
	f := p.eng.cur.Load().Delta(patches, p.gen)
	p.stats.DeltaCompiles++
	p.stats.LastDelta = f.CompileDuration()
	p.eng.cur.Store(f)
	return f
}

// coverOf returns the forwarding action and length of the longest entry
// strictly shorter than pfx that contains it, or a zero next hop when
// nothing covers it. Entry keys are canonical (masked) prefixes, so at
// most pfx.Bits() map probes decide it.
func coverOf(entries map[netip.Prefix]NextHop, pfx netip.Prefix) (NextHop, int) {
	for bits := pfx.Bits() - 1; bits >= 0; bits-- {
		q, err := pfx.Addr().Prefix(bits)
		if err != nil {
			break
		}
		if nh, ok := entries[q]; ok {
			return nh, bits
		}
	}
	return NextHop{}, 0
}

func (p *Publisher) compileLocked() *FIB {
	entries := make([]Entry, 0, len(p.entries))
	for _, pfx := range detsort.KeysFunc(p.entries, detsort.PrefixCompare) {
		entries = append(entries, Entry{Prefix: pfx, NextHop: p.entries[pfx]})
	}
	p.gen++
	f := Compile(entries, p.gen)
	p.stats.Compiles++
	p.stats.LastCompile = f.CompileDuration()
	p.eng.cur.Store(f)
	return f
}

// Stats returns a snapshot of the publisher's counters plus the
// published FIB's size and generation.
func (p *Publisher) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	f := p.eng.cur.Load()
	s.Generation = f.Generation()
	s.Prefixes = f.Size()
	return s
}
