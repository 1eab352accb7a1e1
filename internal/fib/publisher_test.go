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
// exactly the last batch's decisions, withdrawals included. Every other
// round interns next hops no table has held, so the writer copies the
// next-hop table it otherwise shares; readers also keep a FIB they
// loaded earlier and look up in it, and its answers must not change
// under them. Run it under -race. (Concurrent invalidations are
// serialized by the layer above the Publisher; that is
// vns.TestForwardingConcurrentInvalidate.)
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
	// a seventh of those; an odd round's next hops are new ones.
	round := func(r int) []Entry {
		var batch []Entry
		for i := r % 4; i < nPrefixes; i += 4 {
			d := Entry{Prefix: prefixes[i]}
			if (r+i)%7 != 0 {
				d.NextHop = nh(1 + (r+i)%11)
				if r%2 == 1 {
					d.NextHop.Neighbor = 100 + r
				}
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
			var held *FIB
			answers := make([]NextHop, nPrefixes)
			for k := 0; ; k++ {
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
				if k%256 == 0 {
					held = e.Current()
					for i, pfx := range prefixes {
						answers[i], _ = held.Lookup(pfx.Addr())
					}
				}
				if got, _ := held.Lookup(prefixes[k%nPrefixes].Addr()); got != answers[k%nPrefixes] {
					errs <- fmt.Sprintf("generation %d answered %v for %v, then %v", held.Generation(), answers[k%nPrefixes], prefixes[k%nPrefixes], got)
					return
				}
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

// TestPublisherRejectsUnsortedBatch pins the publishes' precondition: a
// batch out of detsort.PrefixCompare order, or with a duplicate, would
// derive a contained prefix before its cover, so it panics instead, for
// Publish's entries and Repoint's points alike; so does Publish on a
// plane of two columns, whose rows are not next hops.
func TestPublisherRejectsUnsortedBatch(t *testing.T) {
	a, b := mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16")
	one := NewEngine(1, nil).Publisher()
	two := NewEngines([]int{1, 2}, nil)[0].Publisher()
	entries := func(ps ...netip.Prefix) []Entry {
		batch := make([]Entry, len(ps))
		for i, pfx := range ps {
			batch[i] = Entry{Prefix: pfx, NextHop: nh(1)}
		}
		return batch
	}
	points := func(ps ...netip.Prefix) []Point {
		batch := make([]Point, len(ps))
		for i, pfx := range ps {
			batch[i] = Point{Prefix: pfx, Row: 1}
		}
		return batch
	}
	rows := []NextHop{nh(1), nh(2)}
	for _, tc := range []struct {
		name    string
		publish func()
	}{
		{"unsorted", func() { one.Publish(entries(b, a)) }},
		{"duplicate", func() { one.Publish(entries(a, a)) }},
		{"unsorted points", func() { two.Repoint(points(b, a), rows) }},
		{"duplicate points", func() { two.Repoint(points(a, a), rows) }},
		{"entries on two columns", func() { two.Publish(entries(a)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the publish did not panic", tc.name)
				}
			}()
			tc.publish()
		}()
	}
	if s := one.Stats(); s.Generation != 0 {
		t.Errorf("a rejected batch published: generation %d", s.Generation)
	}
	if s := two.Stats(); s.Generation != 0 {
		t.Errorf("a rejected plane batch published: generation %d", s.Generation)
	}
}
