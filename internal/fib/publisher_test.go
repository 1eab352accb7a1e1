package fib

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPublisherOneWriterConcurrentReaders runs the Publisher's contract:
// one writer publishes batch after batch while readers look up through
// the Engine and read Stats. The published generation never goes
// backwards at any reader, and once the writer is done the table is
// exactly the last batch's decisions, withdrawals included. (Concurrent
// invalidations are serialized by the layer above the Publisher; that
// is vns.TestForwardingConcurrentInvalidate.)
func TestPublisherOneWriterConcurrentReaders(t *testing.T) {
	const (
		nPrefixes = 64
		nReaders  = 3
		nRounds   = 200
	)
	prefixes := make([]netip.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
	}
	// round's batch names a quarter of the prefixes and withdraws about
	// a seventh of those.
	round := func(r int) []Entry {
		var batch []Entry
		for i := r % 4; i < nPrefixes; i += 4 {
			d := Entry{Prefix: prefixes[i]}
			if (r+i)%7 != 0 {
				d.NextHop = nh(1 + (r+i)%11)
			}
			batch = append(batch, d)
		}
		return batch
	}
	e := NewEngine(1, nil)
	p := e.Publisher()
	p.Publish(nil)

	stop := make(chan struct{})
	errs := make(chan string, nReaders)
	var readers sync.WaitGroup
	var lookups atomic.Uint64
	for r := 0; r < nReaders; r++ {
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
				if s := p.Stats(); s.Generation < gen {
					errs <- fmt.Sprintf("Stats generation %d behind the engine's %d", s.Generation, gen)
					return
				}
				if gen < lastGen {
					errs <- fmt.Sprintf("generation went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
				e.Lookup(prefixes[int(gen)%nPrefixes].Addr())
				lookups.Add(1)
			}
		}()
	}

	want := make(map[netip.Prefix]NextHop)
	for r := 0; r < nRounds; r++ {
		batch := round(r)
		for _, d := range batch {
			want[d.Prefix] = d.NextHop
		}
		p.Publish(batch)
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lookups.Load() == 0 {
		t.Error("the readers never ran")
	}

	for _, pfx := range prefixes {
		got, ok := e.Lookup(pfx.Addr())
		if w := want[pfx]; ok != w.IsValid() || (ok && got != w) {
			t.Fatalf("prefix %v: got (%v, %v), want %v — a published decision was lost", pfx, got, ok, w)
		}
	}
}

// TestPublisherRejectsUnsortedBatch pins Publish's precondition: a
// batch out of detsort.PrefixCompare order, or with a duplicate, would
// patch a contained prefix before its cover, so it panics instead.
func TestPublisherRejectsUnsortedBatch(t *testing.T) {
	p := NewEngine(1, nil).Publisher()
	for _, batch := range [][]netip.Prefix{
		{mustPrefix("10.1.0.0/16"), mustPrefix("10.0.0.0/8")},
		{mustPrefix("10.0.0.0/8"), mustPrefix("10.0.0.0/8")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Publish(%v) did not panic", batch)
				}
			}()
			p.Publish([]Entry{{Prefix: batch[0], NextHop: nh(1)}, {Prefix: batch[1], NextHop: nh(1)}})
		}()
	}
	if s := p.Stats(); s.Generation != 0 {
		t.Errorf("a rejected batch published: generation %d", s.Generation)
	}
}
