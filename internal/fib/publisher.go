package fib

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"vns/internal/detsort"
)

// Config configures a Publisher.
type Config struct {
	// Resolve computes the forwarding action for one prefix from the
	// control plane's current state; i is the prefix's index in the
	// slice ResolveAll or InvalidateEvent was given, so a caller that
	// read a batch's facts up front can look them up by position.
	// Returning ok=false withdraws the prefix from the FIB. It is called
	// once per prefix, in slice order, with the Publisher's internal lock
	// held, so it must not call back into the Publisher.
	Resolve func(i int, pfx netip.Prefix) (NextHop, bool)
	// PublishObserver, when non-nil, receives every publish — full
	// compiles and delta patches alike — with its build duration and the
	// convergence event ID InvalidateEvent carried (0 for ResolveAll and
	// for an unattributed invalidation). This is how a compile is
	// causally tied back to the routing-plane event that triggered it
	// without fib depending on telemetry. Like Resolve it runs with the
	// Publisher's internal lock held and must not call back into the
	// Publisher.
	PublishObserver func(event uint64, d time.Duration)
}

// deltaThreshold is the changed-prefix count up to which an
// invalidation publishes a copy-on-write delta patch (FIB.Delta) in
// place of a full rebuild. Steady-state churn is single-prefix; above
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
	// SkippedCompiles counts invalidations whose prefixes all resolved
	// to unchanged next hops, so no publish was needed (the
	// no-spurious-churn fast path).
	Compiles        uint64
	DeltaCompiles   uint64
	SkippedCompiles uint64
	// LastDelta is the duration of the most recent delta patch.
	LastDelta time.Duration
}

// Publisher owns the write side of a FIB: the resolved entry set and
// every publish. Readers go through the Engine it feeds and never block;
// control plane goroutines drive ResolveAll/InvalidateEvent under an
// internal lock. It batches nothing itself: a caller that wants a burst
// to cost one publish hands it over as one batch (vns.Forwarding owns
// the deployment's debounce).
type Publisher struct {
	cfg Config

	mu sync.Mutex
	// out is where publishes are stored: the owning Engine's pointer, or
	// a reader of the Publisher's own when it has no Engine.
	out     *reader
	entries map[netip.Prefix]NextHop
	gen     uint64
	stats   Stats
}

// NewPublisher creates a Publisher with no Engine, for pipelines that
// only publish. Like an Engine's, it starts out publishing an empty
// generation-0 FIB.
func NewPublisher(cfg Config) *Publisher { return newPublisher(cfg, new(reader)) }

// newPublisher creates a Publisher that stores every publish through
// out, starting with an empty generation-0 FIB.
func newPublisher(cfg Config, out *reader) *Publisher {
	p := &Publisher{
		cfg:     cfg,
		out:     out,
		entries: make(map[netip.Prefix]NextHop),
	}
	p.out.cur.Store(Compile(nil, 0))
	return p
}

// ResolveAll resolves every given prefix from scratch and publishes a
// full compile: the initial table download, or a full reconvergence.
func (p *Publisher) ResolveAll(prefixes []netip.Prefix) *FIB {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries = make(map[netip.Prefix]NextHop, len(prefixes))
	for i, pfx := range prefixes {
		//vnslint:lockheld Resolve is documented to run under the lock and must not call back (see Config.Resolve)
		if nh, ok := p.cfg.Resolve(i, pfx); ok {
			p.entries[pfx] = nh
		}
	}
	f := p.compileLocked()
	p.observe(0, f)
	return f
}

// InvalidateEvent re-resolves a batch of prefixes and, if any next hop
// changed, publishes before it returns: a copy-on-write delta for a
// small batch, a full compile otherwise. The batch must be sorted by
// detsort.PrefixCompare without duplicates, so Resolve callbacks fire
// in a reproducible order and the delta patch applies covers before the
// prefixes they contain (the order puts a covering prefix ahead of its
// contents); an unsorted batch panics. event is the convergence event ID the batch belongs to: the
// publish reports it to Config.PublishObserver, tying the compile cost
// back to the routing-plane event that caused it.
func (p *Publisher) InvalidateEvent(event uint64, prefixes ...netip.Prefix) {
	for i := 1; i < len(prefixes); i++ {
		if detsort.PrefixCompare(prefixes[i-1], prefixes[i]) >= 0 {
			panic(fmt.Sprintf("fib: invalidation batch not sorted and unique at %v, %v", prefixes[i-1], prefixes[i]))
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(prefixes) == 0 {
		return
	}
	patches := make([]Patch, 0, 8)
	for i, pfx := range prefixes {
		//vnslint:lockheld Resolve is documented to run under the lock and must not call back (see Config.Resolve)
		nh, ok := p.cfg.Resolve(i, pfx)
		old, had := p.entries[pfx]
		switch {
		case ok && (!had || old != nh):
			p.entries[pfx] = nh
			patches = append(patches, Patch{Prefix: pfx, Install: true, NextHop: nh, Existed: had})
		case !ok && had:
			delete(p.entries, pfx)
			patches = append(patches, Patch{Prefix: pfx, Existed: true})
		}
	}
	if len(patches) == 0 {
		p.stats.SkippedCompiles++
		return
	}
	var f *FIB
	if p.deltaEligible(len(patches)) {
		f = p.deltaLocked(patches)
	} else {
		f = p.compileLocked()
	}
	p.observe(event, f)
}

// observe reports one publish to Config.PublishObserver.
func (p *Publisher) observe(event uint64, f *FIB) {
	if p.cfg.PublishObserver != nil {
		//vnslint:lockheld PublishObserver is documented to run under the lock and must not call back (see Config.PublishObserver)
		p.cfg.PublishObserver(event, f.CompileDuration())
	}
}

// deltaEligible reports whether a publish of n changed prefixes should
// patch the published trie instead of rebuilding it.
func (p *Publisher) deltaEligible(n int) bool {
	if n > deltaThreshold {
		return false
	}
	// Compaction: a long run of patches accumulates orphaned nodes, so
	// periodically pay for a fresh build.
	return p.out.cur.Load().Deltas() < deltaCompactAfter
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
	f := p.out.cur.Load().Delta(patches, p.gen)
	p.stats.DeltaCompiles++
	p.stats.LastDelta = f.CompileDuration()
	p.out.cur.Store(f)
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
	p.out.cur.Store(f)
	return f
}

// Stats returns a snapshot of the publisher's counters plus the
// published FIB's size and generation.
func (p *Publisher) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	f := p.out.cur.Load()
	s.Generation = f.Generation()
	s.Prefixes = f.Size()
	return s
}
