package fib

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"vns/internal/loss"
)

func nh(pop int) NextHop {
	return NextHop{PoP: pop, Router: netip.AddrFrom4([4]byte{10, 0, byte(pop), 1}), Neighbor: pop}
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestCompileAndLookup(t *testing.T) {
	entries := []Entry{
		{mustPrefix("0.0.0.0/0"), nh(1)},
		{mustPrefix("10.0.0.0/8"), nh(2)},
		{mustPrefix("10.1.0.0/16"), nh(3)},
		{mustPrefix("10.1.2.0/24"), nh(4)},
		{mustPrefix("10.1.2.3/32"), nh(5)},
		{mustPrefix("192.168.0.0/20"), nh(6)},
	}
	f := Compile(entries, 7)
	if f.Generation() != 7 {
		t.Errorf("generation = %d, want 7", f.Generation())
	}
	if f.Size() != len(entries) {
		t.Errorf("size = %d, want %d", f.Size(), len(entries))
	}
	cases := []struct {
		addr string
		want int
	}{
		{"1.2.3.4", 1},        // default route
		{"10.200.0.1", 2},     // /8
		{"10.1.255.1", 3},     // /16
		{"10.1.2.77", 4},      // /24
		{"10.1.2.3", 5},       // /32 exact
		{"192.168.15.255", 6}, // inside /20
		{"192.168.16.0", 1},   // just past the /20: falls to default
	}
	for _, c := range cases {
		got, ok := f.Lookup(netip.MustParseAddr(c.addr))
		if !ok || got.PoP != c.want {
			t.Errorf("Lookup(%s) = %v ok=%v, want pop%d", c.addr, got, ok, c.want)
		}
	}
}

func TestLookupNoDefaultRoute(t *testing.T) {
	f := Compile([]Entry{{mustPrefix("172.16.0.0/12"), nh(1)}}, 1)
	if _, ok := f.Lookup(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("address outside the only prefix should miss")
	}
	if got, ok := f.Lookup(netip.MustParseAddr("172.31.255.255")); !ok || got.PoP != 1 {
		t.Errorf("last address of /12: got %v ok=%v", got, ok)
	}
	if _, ok := f.Lookup(netip.MustParseAddr("172.32.0.0")); ok {
		t.Error("first address after /12 should miss")
	}
}

func TestLookupAddressFamilies(t *testing.T) {
	f := Compile([]Entry{{mustPrefix("10.0.0.0/8"), nh(1)}}, 1)
	if _, ok := f.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 lookup should miss (IPv4-only plane)")
	}
	if got, ok := f.Lookup(netip.MustParseAddr("::ffff:10.1.2.3")); !ok || got.PoP != 1 {
		t.Errorf("4-in-6 mapped lookup: got %v ok=%v, want pop1", got, ok)
	}
}

func TestCompileDuplicatesLastWins(t *testing.T) {
	f := Compile([]Entry{
		{mustPrefix("10.0.0.0/8"), nh(1)},
		{mustPrefix("10.0.0.0/8"), nh(2)},
	}, 1)
	if f.Size() != 1 {
		t.Fatalf("size = %d, want 1", f.Size())
	}
	if got, _ := f.Lookup(netip.MustParseAddr("10.9.9.9")); got.PoP != 2 {
		t.Errorf("duplicate prefix: got pop%d, want the later pop2", got.PoP)
	}
}

func TestCompileIgnoresInvalid(t *testing.T) {
	f := Compile([]Entry{
		{mustPrefix("2001:db8::/32"), nh(1)},  // IPv6: ignored
		{mustPrefix("10.0.0.0/8"), NextHop{}}, // invalid next hop: ignored
		{mustPrefix("10.1.0.0/16"), nh(3)},
	}, 1)
	if f.Size() != 1 {
		t.Errorf("size = %d, want 1", f.Size())
	}
}

// TestMappedPrefixNormalized holds every write path to one reading of
// an IPv4-mapped prefix: ::ffff:10.1.0.0/112 is 10.1.0.0/16, and a
// mapped prefix shorter than /96 is ignored like any IPv6 one. A
// withdrawal of the mapped form falls back to the IPv4 cover.
func TestMappedPrefixNormalized(t *testing.T) {
	cover, mapped, short := mustPrefix("10.0.0.0/8"), mustPrefix("::ffff:10.1.0.0/112"), mustPrefix("::ffff:0:0/95")
	inside, outside := netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("10.2.0.1")
	cases := []struct {
		name  string
		build func() *FIB
		// want is the PoP each probe resolves to.
		want map[netip.Addr]int
		size int
	}{
		{"compile", func() *FIB {
			return Compile([]Entry{{cover, nh(1)}, {mapped, nh(2)}, {short, nh(3)}}, 1)
		}, map[netip.Addr]int{inside: 2, outside: 1}, 2},
		{"delta-install", func() *FIB {
			return Compile([]Entry{{cover, nh(1)}}, 1).Delta([]Patch{
				{Prefix: mapped, Install: true, NextHop: nh(2)},
				{Prefix: short, Install: true, NextHop: nh(3)},
			}, 2)
		}, map[netip.Addr]int{inside: 2, outside: 1}, 2},
		{"publish-withdraw-under-cover", func() *FIB {
			p := NewEngine(1, nil).Publisher()
			p.Publish([]Entry{{cover, nh(1)}, {mapped, nh(2)}})
			return p.Publish([]Entry{{Prefix: mapped}})
		}, map[netip.Addr]int{inside: 1, outside: 1}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build()
			if f == nil {
				t.Fatal("nothing was published")
			}
			if f.Size() != tc.size {
				t.Errorf("Size() = %d, want %d", f.Size(), tc.size)
			}
			for addr, pop := range tc.want {
				if got, ok := f.Lookup(addr); !ok || got.PoP != pop {
					t.Errorf("Lookup(%v) = %v, %v; want pop%d", addr, got, ok, pop)
				}
			}
		})
	}
}

// TestTrieMatchesLinearRandom cross-checks the trie against the
// reference linear LPM on deterministic pseudo-random prefix sets; the
// fuzz target extends this under `-fuzz` with mutation.
func TestTrieMatchesLinearRandom(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		entries := randomEntries(loss.NewRNG(seed), 2000)
		f := Compile(entries, seed)
		l := NewLinear(entries)
		rng := loss.NewRNG(seed ^ 0xADD2)
		for i := 0; i < 5000; i++ {
			addr := randomAddr(rng)
			gotNH, gotOK := f.Lookup(addr)
			wantNH, wantOK := l.Lookup(addr)
			if gotOK != wantOK || gotNH != wantNH {
				t.Fatalf("seed %d: Lookup(%v): trie=%v,%v linear=%v,%v",
					seed, addr, gotNH, gotOK, wantNH, wantOK)
			}
		}
	}
}

// randomEntries generates n entries over a clustered prefix space so
// covering/covered relationships are common.
func randomEntries(rng *loss.RNG, n int) []Entry {
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		bits := 4 + int(rng.Float64()*26) // /4../29
		a := [4]byte{byte(rng.Float64() * 32), byte(rng.Float64() * 8), byte(rng.Float64() * 256), byte(rng.Float64() * 256)}
		p, err := netip.AddrFrom4(a).Prefix(bits)
		if err != nil {
			continue
		}
		entries = append(entries, Entry{Prefix: p, NextHop: nh(1 + i%11)})
	}
	return entries
}

func randomAddr(rng *loss.RNG) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(rng.Float64() * 32), byte(rng.Float64() * 8), byte(rng.Float64() * 256), byte(rng.Float64() * 256)})
}

// decided is the batch a control plane publishes for prefixes, given
// in detsort.PrefixCompare order, under its current routes: a prefix
// without a route gets an invalid next hop, which withdraws it.
func decided(routes map[netip.Prefix]NextHop, prefixes ...netip.Prefix) []Entry {
	batch := make([]Entry, len(prefixes))
	for i, pfx := range prefixes {
		batch[i] = Entry{Prefix: pfx, NextHop: routes[pfx]}
	}
	return batch
}

func TestPublisherResolveAndInvalidate(t *testing.T) {
	routes := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):     nh(1),
		mustPrefix("10.1.0.0/16"):    nh(2),
		mustPrefix("192.168.0.0/16"): nh(3),
	}
	e := NewEngine(1, nil)
	p := e.Publisher()

	f := p.Publish(decided(routes, mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16"), mustPrefix("192.168.0.0/16")))
	if f.Size() != 3 || f.Generation() != 1 {
		t.Fatalf("initial compile: size=%d gen=%d", f.Size(), f.Generation())
	}

	// A changed route recompiles and is visible to readers.
	routes[mustPrefix("10.1.0.0/16")] = nh(9)
	p.Publish(decided(routes, mustPrefix("10.1.0.0/16")))
	if got, _ := e.Lookup(netip.MustParseAddr("10.1.2.3")); got.PoP != 9 {
		t.Errorf("after publish: got pop%d, want 9", got.PoP)
	}
	if gen := e.Current().Generation(); gen != 2 {
		t.Errorf("generation = %d, want 2", gen)
	}

	// An attribute-identical re-resolution must NOT publish a new FIB
	// (no spurious churn).
	if f := p.Publish(decided(routes, mustPrefix("10.0.0.0/8"))); f != nil {
		t.Errorf("unchanged publish returned generation %d, want nil", f.Generation())
	}
	if gen := e.Current().Generation(); gen != 2 {
		t.Errorf("unchanged publish bumped generation to %d", gen)
	}
	if s := p.Stats(); s.SkippedCompiles != 1 {
		t.Errorf("SkippedCompiles = %d, want 1", s.SkippedCompiles)
	}

	// A withdrawn route disappears.
	delete(routes, mustPrefix("192.168.0.0/16"))
	p.Publish(decided(routes, mustPrefix("192.168.0.0/16")))
	if _, ok := e.Lookup(netip.MustParseAddr("192.168.1.1")); ok {
		t.Error("withdrawn prefix still resolves")
	}

	// A brand-new prefix appears through a later publish alone.
	routes[mustPrefix("172.16.0.0/12")] = nh(4)
	p.Publish(decided(routes, mustPrefix("172.16.0.0/12")))
	if got, ok := e.Lookup(netip.MustParseAddr("172.20.0.1")); !ok || got.PoP != 4 {
		t.Errorf("new prefix via publish: got %v ok=%v", got, ok)
	}
}

// TestConcurrentLookupDuringRecompile exercises the lock-free reader
// contract under -race: reader goroutines hammer Lookup while the
// writer recompiles and swaps continuously. Readers must always see a
// complete, internally consistent table.
func TestConcurrentLookupDuringRecompile(t *testing.T) {
	base := map[netip.Prefix]NextHop{
		mustPrefix("10.0.0.0/8"):  nh(1),
		mustPrefix("10.1.0.0/16"): nh(2),
	}
	e := NewEngine(1, nil)
	p := e.Publisher()
	p.Publish(decided(base, mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16")))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			addrCovered := netip.MustParseAddr("10.1.2.3")
			addrOuter := netip.MustParseAddr("10.200.0.1")
			for !stop.Load() {
				if got, ok := e.Lookup(addrCovered); !ok || (got.PoP != 2 && got.PoP != 3) {
					t.Errorf("covered lookup: %v ok=%v", got, ok)
					return
				}
				if got, ok := e.Lookup(addrOuter); !ok || got.PoP != 1 {
					t.Errorf("outer lookup: %v ok=%v", got, ok)
					return
				}
			}
		}()
	}
	// Alternate the /16's next hop so every publish really swaps.
	for i := 1; i <= 300; i++ {
		p.Publish([]Entry{{Prefix: mustPrefix("10.1.0.0/16"), NextHop: nh(2 + i%2)}})
	}
	stop.Store(true)
	wg.Wait()
	if g := e.Current().Generation(); g < 100 {
		t.Errorf("generation = %d, want many swaps", g)
	}
}
