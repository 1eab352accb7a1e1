package geoip

import (
	"net/netip"
	"testing"
	"testing/quick"

	"vns/internal/geo"
	"vns/internal/loss"
)

// catalog is every place that hosts infrastructure, by region then name.
func catalog() []geo.Place {
	var out []geo.Place
	for _, r := range geo.Regions() {
		out = append(out, geo.PlacesInRegion(r)...)
	}
	return out
}

func mustPrefix(s string) netip.Prefix {
	return netip.MustParsePrefix(s)
}

func TestInsertAndLookup(t *testing.T) {
	db := New()
	ams := geo.MustLookup("Amsterdam")
	if err := db.Insert(Record{Prefix: mustPrefix("10.1.0.0/16"), Pos: ams.Pos, Country: "NL", Region: geo.RegionEU}); err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Lookup(netip.MustParseAddr("10.1.2.3"))
	if !ok {
		t.Fatal("lookup failed")
	}
	if rec.Country != "NL" {
		t.Errorf("country = %q", rec.Country)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("10.2.0.1")); ok {
		t.Error("lookup outside prefix should miss")
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	db := New()
	db.Insert(Record{Prefix: mustPrefix("10.0.0.0/8"), Country: "US"})
	db.Insert(Record{Prefix: mustPrefix("10.1.0.0/16"), Country: "NL"})
	db.Insert(Record{Prefix: mustPrefix("10.1.2.0/24"), Country: "DE"})
	// An IPv4-mapped /128 is the IPv4 /32 it maps, found by either form.
	if err := db.Insert(Record{Prefix: mustPrefix("::ffff:10.1.2.7/128"), Country: "HOST"}); err != nil {
		t.Fatal(err)
	}

	cases := map[string]string{
		"10.1.2.3":        "DE",
		"10.1.3.1":        "NL",
		"10.9.0.1":        "US",
		"10.1.2.99":       "DE",
		"10.1.2.7":        "HOST",
		"::ffff:10.1.2.7": "HOST",
		"::ffff:10.1.2.8": "DE",
	}
	for addr, want := range cases {
		rec, ok := db.Lookup(netip.MustParseAddr(addr))
		if !ok {
			t.Fatalf("no match for %s", addr)
		}
		if rec.Country != want {
			t.Errorf("lookup(%s) = %q, want %q", addr, rec.Country, want)
		}
	}
}

func TestInsertReplaces(t *testing.T) {
	db := New()
	p := mustPrefix("192.168.0.0/16")
	db.Insert(Record{Prefix: p, Country: "A"})
	db.Insert(Record{Prefix: p, Country: "B"})
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
	rec, _ := db.LookupPrefix(p)
	if rec.Country != "B" {
		t.Errorf("replacement failed: %q", rec.Country)
	}
}

func TestInsertInvalid(t *testing.T) {
	db := New()
	if err := db.Insert(Record{}); err == nil {
		t.Error("inserting invalid prefix should fail")
	}
	if err := db.Insert(Record{Prefix: mustPrefix("::ffff:10.0.0.0/95")}); err == nil {
		t.Error("inserting an IPv4-mapped prefix shorter than /96 should fail")
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts, want 0", db.Len())
	}
}

func TestLookupInvalidAddr(t *testing.T) {
	db := New()
	db.Insert(Record{Prefix: mustPrefix("0.0.0.0/0"), Country: "X"})
	if _, ok := db.Lookup(netip.Addr{}); ok {
		t.Error("invalid addr should miss")
	}
	if _, ok := db.LookupPrefix(netip.Prefix{}); ok {
		t.Error("invalid prefix should miss")
	}
}

func TestDefaultRoute(t *testing.T) {
	db := New()
	db.Insert(Record{Prefix: mustPrefix("0.0.0.0/0"), Country: "DFLT"})
	db.Insert(Record{Prefix: mustPrefix("10.0.0.0/8"), Country: "TEN"})
	rec, ok := db.Lookup(netip.MustParseAddr("8.8.8.8"))
	if !ok || rec.Country != "DFLT" {
		t.Errorf("default route lookup = %+v, %v", rec, ok)
	}
	rec, _ = db.Lookup(netip.MustParseAddr("10.0.0.1"))
	if rec.Country != "TEN" {
		t.Error("more specific should win over default")
	}
}

func TestIPv6Separation(t *testing.T) {
	db := New()
	db.Insert(Record{Prefix: mustPrefix("2001:db8::/32"), Country: "V6"})
	db.Insert(Record{Prefix: mustPrefix("32.0.0.0/8"), Country: "V4"})
	rec, ok := db.Lookup(netip.MustParseAddr("2001:db8::1"))
	if !ok || rec.Country != "V6" {
		t.Errorf("v6 lookup = %+v %v", rec, ok)
	}
	rec, ok = db.Lookup(netip.MustParseAddr("32.1.1.1"))
	if !ok || rec.Country != "V4" {
		t.Errorf("v4 lookup = %+v %v", rec, ok)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("2001:db9::1")); ok {
		t.Error("v6 miss expected")
	}
}

func TestWalk(t *testing.T) {
	db := New()
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24", "2001:db8::/32"}
	for _, p := range prefixes {
		db.Insert(Record{Prefix: mustPrefix(p), Country: p})
	}
	seen := map[string]bool{}
	db.Walk(func(r Record) bool {
		seen[r.Country] = true
		return true
	})
	if len(seen) != len(prefixes) {
		t.Errorf("walk saw %d records, want %d", len(seen), len(prefixes))
	}
	// Early termination.
	n := 0
	db.Walk(func(Record) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("walk did not stop early: %d", n)
	}
}

func TestLPMProperty(t *testing.T) {
	// For random prefixes, a lookup of the prefix's own first address
	// must return a record whose prefix contains that address, and no
	// inserted prefix containing the address may be longer.
	f := func(a, b, c, d byte, bits1, bits2 uint8) bool {
		db := New()
		p1 := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), int(bits1%33)).Masked()
		p2 := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c ^ 1, d}), int(bits2%33)).Masked()
		db.Insert(Record{Prefix: p1, Country: "P1"})
		db.Insert(Record{Prefix: p2, Country: "P2"})
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		rec, ok := db.Lookup(addr)
		if !ok {
			// p1 must contain addr by construction (it is derived from it).
			return false
		}
		if !rec.Prefix.Contains(addr) {
			return false
		}
		// No inserted prefix containing addr may be longer than the match.
		for _, p := range []netip.Prefix{p1, p2} {
			if p.Contains(addr) && p.Bits() > rec.Prefix.Bits() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCorruptorStaleRelocation(t *testing.T) {
	c := NewCorruptor(loss.NewRNG(1))
	c.StaleRate = 1 // force
	mumbai := geo.MustLookup("Mumbai")
	truth := Record{Prefix: mustPrefix("10.0.0.0/16"), Pos: mumbai.Pos, Country: "IN", Region: geo.RegionAP}
	out := c.Apply(truth)
	if !out.Stale {
		t.Fatal("record should be stale")
	}
	if geo.DistanceKm(out.Pos, geo.MustLookup("Montreal").Pos) > 1 {
		t.Errorf("stale record not in Montreal: %v", out.Pos)
	}
	if out.Region != geo.RegionNA {
		t.Errorf("stale region = %v, want NA", out.Region)
	}
}

func TestCorruptorCountryCollapse(t *testing.T) {
	c := NewCorruptor(loss.NewRNG(2))
	c.StaleRate = 0
	c.CityJitterKmSigma = 0
	c.CountryCollapseOverrides = map[string]float64{"RU": 1}
	spb := geo.MustLookup("StPetersburg")
	out := c.Apply(Record{Pos: spb.Pos, Country: "RU"})
	centroid, _ := geo.CountryCentroid("RU")
	if geo.DistanceKm(out.Pos, centroid) > 1 {
		t.Errorf("RU record not collapsed to centroid: %v vs %v", out.Pos, centroid)
	}
}

func TestCorruptorJitterMagnitude(t *testing.T) {
	c := NewCorruptor(loss.NewRNG(3))
	c.StaleRate = 0
	c.CountryCollapseRate = 0
	c.CountryCollapseOverrides = nil
	c.CityJitterKmSigma = 60
	ams := geo.MustLookup("Amsterdam")
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		out := c.Apply(Record{Pos: ams.Pos, Country: "NL"})
		if !out.Pos.Valid() {
			t.Fatalf("jittered position invalid: %v", out.Pos)
		}
		sum += geo.DistanceKm(ams.Pos, out.Pos)
	}
	mean := sum / float64(n)
	// Mean displacement of a 2-D normal with sigma=60 per axis is
	// sigma*sqrt(pi/2) ~ 75 km.
	if mean < 40 || mean > 120 {
		t.Errorf("mean jitter = %.1f km, want ~75 km", mean)
	}
}

func TestCorruptorAccuracyMatchesLiterature(t *testing.T) {
	// Poese et al.: ~60% of prefixes within 100 km. With default
	// calibration most records should be within 100 km but a solid
	// minority should not.
	c := NewCorruptor(loss.NewRNG(4))
	within := 0
	n := 5000
	places := catalog()
	rng := loss.NewRNG(99)
	for i := 0; i < n; i++ {
		p := places[rng.Intn(len(places))]
		out := c.Apply(Record{Pos: p.Pos, Country: p.Country})
		if geo.DistanceKm(p.Pos, out.Pos) <= 100 {
			within++
		}
	}
	frac := float64(within) / float64(n)
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("fraction within 100km = %.2f, want 0.5-0.95", frac)
	}
}

func BenchmarkLookup(b *testing.B) {
	db := New()
	rng := loss.NewRNG(1)
	for i := 0; i < 100000; i++ {
		addr := netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		db.Insert(Record{Prefix: netip.PrefixFrom(addr, 24).Masked(), Country: "X"})
	}
	probe := netip.MustParseAddr("100.50.25.1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Lookup(probe)
	}
}

func TestCompareAccuracy(t *testing.T) {
	truth := New()
	db := New()
	corr := NewCorruptor(loss.NewRNG(42))
	places := catalog()
	rng := loss.NewRNG(7)
	for i := 0; i < 2000; i++ {
		p := places[rng.Intn(len(places))]
		rec := Record{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i/65536), byte(i >> 8), byte(i), 0}), 24).Masked(),
			Pos:     p.Pos,
			Country: p.Country,
			Region:  p.Region,
		}
		truth.Insert(rec)
		db.Insert(corr.Apply(rec))
	}
	rep := CompareAccuracy(truth, db)
	if rep.Records != 2000 {
		t.Fatalf("records = %d", rep.Records)
	}
	// Poese et al. shape: ~60% within 100 km, country mostly right.
	if rep.Within100Km < 0.4 || rep.Within100Km > 0.95 {
		t.Errorf("within 100km = %.2f", rep.Within100Km)
	}
	if rep.CountryMatch < 0.8 {
		t.Errorf("country match = %.2f", rep.CountryMatch)
	}
	if !(rep.Within10Km <= rep.Within100Km && rep.Within100Km <= rep.Within1000Km) {
		t.Error("within-distance fractions not monotone")
	}
	if rep.MedianErrorKm <= 0 {
		t.Error("zero median error after corruption")
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	// Perfect database: everything within 10 km, zero median error.
	perfect := CompareAccuracy(truth, truth)
	if perfect.Within10Km != 1 || perfect.CountryMatch != 1 {
		t.Errorf("self comparison imperfect: %+v", perfect)
	}
	// Empty comparison.
	if rep := CompareAccuracy(New(), New()); rep.Records != 0 {
		t.Error("empty comparison nonzero")
	}
}
