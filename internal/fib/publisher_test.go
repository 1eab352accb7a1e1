package fib

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPublisherConcurrentInvalidate hammers one publisher from several
// control-plane writers while a reader watches the published FIB. Two
// invariants must hold: the published generation never goes backwards,
// and once the writers are done no invalidated prefix is lost — every
// prefix resolves to the last value its writer stored. (The debounced
// form, with vns.Forwarding's timer between the writers and the
// publishers, is vns.TestForwardingConcurrentInvalidate.)
func TestPublisherConcurrentInvalidate(t *testing.T) {
	const (
		nPrefixes = 64
		nWriters  = 4
		nRounds   = 100
	)
	prefixes := make([]netip.Prefix, nPrefixes)
	want := make([]atomic.Int64, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		want[i].Store(1)
	}
	e := NewEngine(1, Config{
		Resolve: func(_ int, pfx netip.Prefix) (NextHop, bool) {
			return NextHop{PoP: int(want[pfx.Addr().As4()[1]].Load())}, true
		},
	}, nil)
	p := e.Publisher()
	p.ResolveAll(prefixes)

	stop := make(chan struct{})
	var readerErr atomic.Value
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var lastGen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen := e.Current().Generation()
			if gen < lastGen {
				readerErr.Store(fmt.Sprintf("generation went backwards: %d after %d", gen, lastGen))
				return
			}
			lastGen = gen
			e.Lookup(prefixes[int(gen)%nPrefixes].Addr())
		}
	}()

	// Each writer owns an interleaved subset of prefixes, so two writers
	// never race on the same want cell; publishing the value before
	// invalidating mirrors how a control plane updates its RIB and then
	// notifies.
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; r < nRounds; r++ {
				for i := w; i < nPrefixes; i += nWriters {
					want[i].Store(int64(2 + (r*nPrefixes+i)%100))
					p.InvalidateEvent(0, prefixes[i])
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatal(err)
	}

	for i, pfx := range prefixes {
		nh, ok := e.Lookup(pfx.Addr())
		if !ok || int64(nh.PoP) != want[i].Load() {
			t.Fatalf("prefix %v: got (%v, %v), want pop %d — invalidated prefix lost",
				pfx, nh, ok, want[i].Load())
		}
	}
}

// TestPublisherRejectsUnsortedBatch pins InvalidateEvent's precondition:
// a batch out of detsort.PrefixCompare order, or with a duplicate, would
// patch a contained prefix before its cover, so it panics instead.
func TestPublisherRejectsUnsortedBatch(t *testing.T) {
	p := NewPublisher(Config{Resolve: func(int, netip.Prefix) (NextHop, bool) { return nh(1), true }})
	for _, batch := range [][]netip.Prefix{
		{mustPrefix("10.1.0.0/16"), mustPrefix("10.0.0.0/8")},
		{mustPrefix("10.0.0.0/8"), mustPrefix("10.0.0.0/8")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InvalidateEvent(%v) did not panic", batch)
				}
			}()
			p.InvalidateEvent(0, batch...)
		}()
	}
	if s := p.Stats(); s.Generation != 0 {
		t.Errorf("a rejected batch published: generation %d", s.Generation)
	}
}
