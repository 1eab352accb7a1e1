package fib

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPublisherConcurrentInvalidate hammers one publisher from several
// control-plane writers while a reader watches the published FIB, under
// both synchronous and debounced compilation. Two invariants must hold:
// the published generation never goes backwards, and after a final
// Flush no dirty prefix is lost — every prefix resolves to the last
// value its writer stored.
func TestPublisherConcurrentInvalidate(t *testing.T) {
	for _, debounce := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("debounce=%v", debounce), func(t *testing.T) {
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
				Debounce: debounce,
				Resolve: func(pfx netip.Prefix) (NextHop, bool) {
					return NextHop{PoP: int(want[pfx.Addr().As4()[1]].Load())}, true
				},
			}, nil)
			p := e.Publisher()
			defer p.Close()
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

			// Each writer owns an interleaved subset of prefixes, so two
			// writers never race on the same want cell; publishing the
			// value before invalidating mirrors how a control plane
			// updates its RIB and then notifies.
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

			p.Flush()
			for i, pfx := range prefixes {
				nh, ok := e.Lookup(pfx.Addr())
				if !ok || int64(nh.PoP) != want[i].Load() {
					t.Fatalf("prefix %v: got (%v, %v), want pop %d — dirty prefix lost",
						pfx, nh, ok, want[i].Load())
				}
			}
			if s := p.Stats(); s.Pending != 0 {
				t.Errorf("pending = %d after final flush", s.Pending)
			}
		})
	}
}
