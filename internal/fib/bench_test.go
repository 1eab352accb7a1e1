package fib

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"vns/internal/loss"
)

// benchTable builds a deterministic ~n-prefix entry set plus a probe
// address list that mixes hits and misses.
func benchTable(n int) ([]Entry, []netip.Addr) {
	rng := loss.NewRNG(0xF1B)
	entries := randomEntries(rng, n)
	addrs := make([]netip.Addr, 4096)
	for i := range addrs {
		addrs[i] = randomAddr(rng)
	}
	return entries, addrs
}

// BenchmarkFIBLookup measures trie lookup cost at 100k-prefix scale —
// the compiled hot path (target: tens of ns, ≥10× the linear scan).
func BenchmarkFIBLookup(b *testing.B) {
	entries, addrs := benchTable(100_000)
	f := Compile(entries, 1)
	b.ReportMetric(float64(f.Size()), "prefixes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkLinearLookup is the reference LPM at the same scale; the
// ratio to BenchmarkFIBLookup is the compiled plane's speedup.
func BenchmarkLinearLookup(b *testing.B) {
	entries, addrs := benchTable(100_000)
	l := NewLinear(entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkFIBRecompile measures a full 100k-prefix trie build — the
// control plane's cost to publish new routing state.
func BenchmarkFIBRecompile(b *testing.B) {
	entries, _ := benchTable(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(entries, uint64(i))
	}
}

// BenchmarkFIBLookupParallel measures lookup throughput across all
// cores while a writer continuously recompiles and atomically swaps the
// table — the lookup-under-churn case the atomic.Pointer publication
// exists for.
func BenchmarkFIBLookupParallel(b *testing.B) {
	entries, addrs := benchTable(100_000)
	var cur atomic.Pointer[FIB]
	cur.Store(Compile(entries, 0))

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		gen := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
				cur.Store(Compile(entries, gen))
				gen++
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			cur.Load().Lookup(addrs[i%len(addrs)])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkEngineLookupBesideWriter is vnsbench's dataplane workload
// without the harness: one reader round-robins 11 engines over 65 536
// seeded addresses (15 of 16 inside an installed /20) while a writer
// publishes a one-prefix delta to every engine at 200 events/s. One op
// is one lookup, so ns/op is the cost per lookup; it fails on any wrong
// answer.
func BenchmarkEngineLookupBesideWriter(b *testing.B) {
	const (
		pops     = 11
		prefixes = 358 // the vnsbench world's table
		addrs    = 1 << 16
		writerHz = 200
	)
	// Consecutive /20s from 1.0.0.0, as the world allocates them, so the
	// tries are as small and cache-resident as the deployment's.
	table := make(map[netip.Prefix]NextHop, prefixes)
	universe := make([]netip.Prefix, prefixes)
	for i := range universe {
		a := uint32(1)<<24 | uint32(i)<<12
		universe[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), 0}), 20)
		table[universe[i]] = nh(1 + i%pops)
	}
	rng := loss.NewRNG(0xDA7A)
	probe := make([]netip.Addr, addrs)
	inside := make([]bool, addrs)
	for k := range probe {
		if k%16 == 15 {
			probe[k] = netip.AddrFrom4([4]byte{200, byte(rng.Float64() * 256), byte(rng.Float64() * 256), byte(rng.Float64() * 256)})
			continue
		}
		a := universe[int(rng.Float64()*prefixes)].Addr().As4()
		a[2] |= byte(rng.Float64() * 16)
		a[3] = byte(rng.Float64() * 256)
		probe[k], inside[k] = netip.AddrFrom4(a), true
	}
	// Only the writer goroutine touches table after this.
	engines := make([]*Engine, pops)
	for i := range engines {
		engines[i] = NewEngine(i+1, nil)
		engines[i].Publisher().Publish(entriesOf(table))
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second / writerHz)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			pfx := universe[k%prefixes]
			h := table[pfx]
			h.Neighbor ^= 1
			table[pfx] = h
			for _, e := range engines {
				e.Publisher().Publish([]Entry{{Prefix: pfx, NextHop: h}})
			}
		}
	}()

	var wrong int
	e := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (addrs - 1)
		if _, ok := engines[e].Lookup(probe[k]); ok != inside[k] {
			wrong++
		}
		if e++; e == pops {
			e = 0
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	if wrong != 0 {
		b.Errorf("%d of %d lookups answered wrongly", wrong, b.N)
	}
}

// internetTable builds a ~400k-prefix entry set shaped like a full
// Internet table: dense /24 coverage under a handful of /8s plus /16
// covers, concentrated so the trie's node count stays realistic.
func internetTable() []Entry {
	entries := make([]Entry, 0, 400_000)
	for a := 10; a < 16; a++ { // 6 /8s × 65536 /24s ≈ 393k
		for b := 0; b < 256; b++ {
			entries = append(entries, Entry{
				Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), 0, 0}), 16),
				NextHop: nh(1 + (a+b)%11),
			})
			for c := 0; c < 256; c++ {
				entries = append(entries, Entry{
					Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), 0}), 24),
					NextHop: nh(1 + (a+b+c)%11),
				})
			}
		}
	}
	return entries
}

// BenchmarkFIBDeltaPatch measures a single-prefix churn event against a
// full-Internet-scale (~400k prefix) table published as a copy-on-write
// delta — the paper-scale steady-state cost the delta compiler exists
// for. The acceptance bar is sub-millisecond per publish; compare
// BenchmarkFIBFullCompile400k for what each event would cost without it.
func BenchmarkFIBDeltaPatch(b *testing.B) {
	entries := internetTable()
	cur := Compile(entries, 1)
	b.ReportMetric(float64(cur.Size()), "prefixes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Flap one /24's next hop; rotate across the table so patches hit
		// fresh paths rather than one warm node.
		e := entries[i%len(entries)]
		cur = cur.Delta([]Patch{{Prefix: e.Prefix, Install: true, NextHop: nh(1 + i%11), Existed: true}}, uint64(i+2))
	}
	b.StopTimer()
	if d := cur.CompileDuration(); d > time.Millisecond {
		b.Errorf("single-prefix delta publish took %v, want < 1ms", d)
	}
	b.ReportMetric(float64(cur.CompileDuration().Nanoseconds()), "ns/publish")
}

// BenchmarkFIBFullCompile400k is the delta patch's foil: a from-scratch
// build of the same ~400k-prefix table, i.e. the per-churn-event cost
// before delta compilation existed.
func BenchmarkFIBFullCompile400k(b *testing.B) {
	entries := internetTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(entries, uint64(i))
	}
}

// BenchmarkPublisherInvalidate measures one incremental single-prefix
// publish (diff + delta patch + swap) on a 100k-prefix table.
func BenchmarkPublisherInvalidate(b *testing.B) {
	entries, _ := benchTable(100_000)
	table := make(map[netip.Prefix]NextHop, len(entries))
	for _, e := range entries {
		table[e.Prefix.Masked()] = e.NextHop
	}
	universe := entriesOf(table)
	pub := NewEngine(1, nil).Publisher()
	b.ReportMetric(float64(pub.Publish(universe).Size()), "prefixes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := universe[i%len(universe)]
		if i%2 == 0 {
			e.NextHop.Neighbor++
		}
		pub.Publish([]Entry{e})
	}
	b.StopTimer()
	if s := pub.Stats(); s.LastCompile > 0 {
		b.ReportMetric(float64(s.LastCompile)/float64(time.Millisecond), "ms/recompile")
	}
}
