package geoip

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"vns/internal/detsort"
	"vns/internal/loss"
)

// linearLookup is the reference longest-prefix match: a scan over every
// record, keyed by the IPv4 or IPv6 prefix it is stored under.
func linearLookup(ref map[netip.Prefix]Record, addr netip.Addr) (Record, bool) {
	addr = addr.Unmap()
	var best Record
	found := false
	for p, rec := range ref {
		if p.Contains(addr) && (!found || p.Bits() > best.Prefix.Bits()) {
			best, found = rec, true
		}
	}
	return best, found
}

// lastAddr returns the highest address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	raw := p.Addr().AsSlice()
	for i := p.Bits(); i < 8*len(raw); i++ {
		raw[i/8] |= 0x80 >> (i % 8)
	}
	a, _ := netip.AddrFromSlice(raw)
	return a
}

// TestWalkOrder pins Walk's order, and with it WriteTo's bytes: records
// come out in detsort.PrefixCompare order (IPv4 before IPv6, then by
// address, then by length) whatever order they went in, a replaced
// record keeps its place, and Len counts each prefix once.
func TestWalkOrder(t *testing.T) {
	inserts := []string{
		"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.7/32",
		"0.0.0.0/0", "::/0", "2001:db8::/32", "2001:db8:1::/48",
		"2001:db8::1/128", "::ffff:192.168.1.0/120", "9.0.0.0/8",
		"8.0.0.0/7", "11.0.0.0/8", "10.0.0.0/7",
	}
	// 10.0.0.0/7 is fully shadowed: 10.0.0.0/8 and 11.0.0.0/8 own both
	// of its slots. Replacing it must still find it.
	replacements := []string{"10.1.0.0/16", "10.0.0.0/7", "::/0"}
	want := []string{
		"0.0.0.0/0", "8.0.0.0/7", "9.0.0.0/8", "10.0.0.0/7", "10.0.0.0/8",
		"10.1.0.0/16", "10.1.2.0/24", "10.1.2.7/32", "11.0.0.0/8",
		"192.168.1.0/24", "::/0", "2001:db8::/32", "2001:db8::1/128",
		"2001:db8:1::/48",
	}
	if !slices.IsSortedFunc(want, func(a, b string) int {
		return detsort.PrefixCompare(mustPrefix(a), mustPrefix(b))
	}) {
		t.Fatal("want list is not in detsort.PrefixCompare order")
	}
	replaced := map[string]bool{"10.1.0.0/16": true, "10.0.0.0/7": true, "::/0": true}

	var first []byte
	rng := loss.NewRNG(5)
	for round := 0; round < 6; round++ {
		order := slices.Clone(inserts)
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		db := New()
		for _, p := range order {
			if err := db.Insert(Record{Prefix: mustPrefix(p), Country: "old"}); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range replacements {
			if err := db.Insert(Record{Prefix: mustPrefix(p), Country: "new"}); err != nil {
				t.Fatal(err)
			}
		}
		if db.Len() != len(want) {
			t.Errorf("round %d: Len = %d, want %d", round, db.Len(), len(want))
		}
		var got []string
		db.Walk(func(r Record) bool {
			got = append(got, r.Prefix.String())
			if wantCountry := map[bool]string{true: "new", false: "old"}[replaced[r.Prefix.String()]]; r.Country != wantCountry {
				t.Errorf("round %d: %v has country %q, want %q", round, r.Prefix, r.Country, wantCountry)
			}
			return true
		})
		if !slices.Equal(got, want) {
			t.Errorf("round %d (insert order %v): Walk order\n got %v\nwant %v", round, order, got, want)
		}
		var buf bytes.Buffer
		if _, err := db.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Errorf("round %d: WriteTo bytes differ from round 0's", round)
		}
	}
}

// FuzzLookup differentially tests the database against a linear scan:
// any insert sequence (IPv4, IPv6, IPv4-mapped, /0 through /32 and
// /128, replacements) must answer Lookup and LookupPrefix as the
// longest matching record does, at every record's first and last
// address and at random ones. Every insert, a replacement included,
// bumps the generation.
//
// Each 6-byte chunk of the input is one insert: a kind byte (family
// and record tag), a length byte and four address bytes, which an IPv6
// address repeats four times so prefixes nest and share paths.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{0, 8, 10, 0, 0, 0, 0, 16, 10, 1, 0, 0, 1, 32, 32, 1, 13, 184, 2, 24, 10, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 32, 1, 2, 3, 4, 1, 128, 1, 2, 3, 4, 3, 32, 1, 2, 3, 4})
	f.Add([]byte{0, 7, 10, 0, 0, 0, 0, 8, 10, 0, 0, 0, 0, 8, 11, 0, 0, 0, 3, 7, 10, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		db := New()
		ref := map[netip.Prefix]Record{}
		var probes []netip.Addr
		for i := 0; len(data) >= 6; i, data = i+1, data[6:] {
			kind, bits, a4 := data[0], int(data[1]), [4]byte(data[2:6])
			var a16 [16]byte
			for j := range a16 {
				a16[j] = a4[j%4]
			}
			// The database stores p under stored; the reference keys
			// it by the prefix it must answer as.
			var p, stored netip.Prefix
			switch kind % 3 {
			case 0:
				p = netip.PrefixFrom(netip.AddrFrom4(a4), bits%33)
				stored = p.Masked()
			case 1:
				p = netip.PrefixFrom(netip.AddrFrom16(a16), bits%129)
				stored = p.Masked()
			case 2:
				p = netip.PrefixFrom(netip.AddrFrom16(netip.AddrFrom4(a4).As16()), 96+bits%33)
				stored = netip.PrefixFrom(netip.AddrFrom4(a4), bits%33).Masked()
			}
			rec := Record{Prefix: p, Country: fmt.Sprint(i)}
			if err := db.Insert(rec); err != nil {
				t.Fatalf("Insert(%v): %v", p, err)
			}
			if g := db.Generation(); g != uint64(i+1) {
				t.Fatalf("generation %d after insert %d", g, i+1)
			}
			rec.Prefix = stored
			ref[stored] = rec
			probes = append(probes, p.Addr(), stored.Addr(), lastAddr(stored))
		}
		rng := loss.NewRNG(uint64(len(probes)))
		for i := 0; i < 32; i++ {
			var a [16]byte
			for j := range a {
				a[j] = []byte{0, 1, 10, 255}[rng.Intn(4)]
			}
			probes = append(probes, netip.AddrFrom4([4]byte(a[:4])), netip.AddrFrom16(a))
		}
		for _, a := range probes {
			got, gotOK := db.Lookup(a)
			want, wantOK := linearLookup(ref, a)
			if got != want || gotOK != wantOK {
				t.Fatalf("Lookup(%v) = %+v, %v; want %+v, %v", a, got, gotOK, want, wantOK)
			}
			for _, bits := range []int{0, 8, 24, 32, 64, 128} {
				p, err := a.Prefix(bits)
				if err != nil {
					continue
				}
				got, gotOK := db.LookupPrefix(p)
				want, wantOK := linearLookup(ref, p.Addr())
				if got != want || gotOK != wantOK {
					t.Fatalf("LookupPrefix(%v) = %+v, %v; want %+v, %v", p, got, gotOK, want, wantOK)
				}
			}
		}
		if db.Len() != len(ref) {
			t.Errorf("Len = %d, want %d", db.Len(), len(ref))
		}
		var walked []netip.Prefix
		db.Walk(func(r Record) bool {
			walked = append(walked, r.Prefix)
			return true
		})
		if want := detsort.KeysFunc(ref, detsort.PrefixCompare); !slices.Equal(walked, want) {
			t.Errorf("Walk = %v, want %v", walked, want)
		}
	})
}

// seed1DB returns a database shaped like the seed-1 world's: 358
// consecutive /20s.
func seed1DB() *DB {
	db := New()
	for i := 0; i < 358; i++ {
		a := uint32(1)<<24 | uint32(i)<<12
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), 0}), 20)
		if err := db.Insert(Record{Prefix: pfx, Country: "X"}); err != nil {
			panic(err)
		}
	}
	return db
}

// TestLookupBudgetTest is the control-plane lookup's allocation budget
// in CI (`go test -run BudgetTest ./internal/geoip`): every GeoRR
// assignment geolocates its prefix, so Lookup, LookupPrefix and
// IndexPrefix must not allocate. Skips under -race, where allocation
// counts reflect instrumentation, not design.
func TestLookupBudgetTest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments the lookup path; budget not meaningful")
	}
	db := seed1DB()
	addr := netip.MustParseAddr("1.0.33.7")
	pfx := netip.MustParsePrefix("1.0.32.0/20")
	if _, ok := db.Lookup(addr); !ok {
		t.Fatal("seed-1-shaped database misses its own prefix")
	}
	if allocs := testing.AllocsPerRun(100, func() { db.Lookup(addr) }); allocs != 0 {
		t.Errorf("Lookup makes %.0f allocations, budget 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { db.LookupPrefix(pfx) }); allocs != 0 {
		t.Errorf("LookupPrefix makes %.0f allocations, budget 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { db.IndexPrefix(pfx) }); allocs != 0 {
		t.Errorf("IndexPrefix makes %.0f allocations, budget 0", allocs)
	}
}
