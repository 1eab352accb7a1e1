package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"

	"vns/internal/geo"
	"vns/internal/geoip"
	"vns/internal/telemetry"
)

// outcomeCase is one Assign call that lands on a known outcome.
type outcomeCase struct {
	pol  *Policy
	from netip.Addr
	pfx  netip.Prefix
}

// outcomeCases builds a GeoRR reporting to a fresh registry, with one
// Assign call per outcome, indexed by Reason.
func outcomeCases(t *testing.T) (*telemetry.Registry, *GeoRR, [numReasons]outcomeCase) {
	t.Helper()
	db := geoip.New()
	for i, city := range []string{"Amsterdam", "NewYork", "HongKong", "Sydney"} {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i + 1), 0, 0}), 16)
		if err := db.Insert(geoip.Record{Prefix: pfx, Pos: geo.MustLookup(city).Pos}); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.New()
	rr := New(Config{DB: db, Telemetry: reg})
	ams, ash, hk := addr("10.0.1.1"), addr("10.0.2.1"), addr("10.0.3.1")
	rr.AddEgress(Egress{ID: ams, Pos: geo.MustLookup("Amsterdam").Pos})
	rr.AddEgress(Egress{ID: ash, Pos: geo.MustLookup("Ashburn").Pos})
	rr.AddEgress(Egress{ID: hk, Pos: geo.MustLookup("HongKong").Pos})
	rr.Exempt(prefix("10.2.0.0/16"))
	if err := rr.ForceExit(prefix("10.3.0.0/16"), hk); err != nil {
		t.Fatal(err)
	}
	if err := rr.SetOverride(prefix("10.4.0.0/16"), ash); err != nil {
		t.Fatal(err)
	}
	rr.SetEgressDown(hk, true)

	pol := rr.Policy()
	// Forced here needs the forced egress live.
	rr.SetEgressDown(hk, false)
	here := rr.Policy()
	return reg, rr, [numReasons]outcomeCase{
		ReasonGeo:           {pol, ams, prefix("10.1.0.0/16")},
		ReasonExempt:        {pol, ams, prefix("10.2.0.0/16")},
		ReasonUnknownEgress: {pol, addr("10.9.9.9"), prefix("10.1.0.0/16")},
		ReasonEgressDown:    {pol, hk, prefix("10.1.0.0/16")},
		ReasonForcedHere:    {here, hk, prefix("10.3.0.0/16")},
		ReasonForcedOther:   {pol, ams, prefix("10.3.0.0/16")},
		ReasonNoGeolocation: {pol, ams, prefix("172.16.0.0/12")},
		ReasonAdaptive:      {pol, ash, prefix("10.4.0.0/16")},
	}
}

// TestBudgetTest is Assign's allocation budget in CI (`go test -run
// BudgetTest ./internal/core`): every one of its eight outcomes, with
// telemetry on, makes no allocation, and counts under its own reason
// label. Skips under -race, where allocation counts reflect
// instrumentation, not design.
func TestBudgetTest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments the hot path; budget not meaningful")
	}
	reg, _, cases := outcomeCases(t)
	for r, c := range cases {
		reason := Reason(r)
		t.Run(reason.String(), func(t *testing.T) {
			if got := c.pol.Assign(c.from, c.pfx).Reason; got != reason {
				t.Fatalf("Assign(%v, %v) = %v", c.from, c.pfx, got)
			}
			before := assignCount(reg, reason)
			if allocs := testing.AllocsPerRun(100, func() { c.pol.Assign(c.from, c.pfx) }); allocs != 0 {
				t.Errorf("Assign makes %.0f allocations, budget 0", allocs)
			}
			// AllocsPerRun makes one warm-up call besides its 100.
			if got := assignCount(reg, reason) - before; got != 101 {
				t.Errorf("core_assignments_total{reason=%q} rose by %d over 101 calls", reason, got)
			}
		})
	}
}

// TestAssignOutcomesCountOnce: the rendered assignment families and
// Stats read one record. After r+1 calls landing on each outcome r,
// every core_assignments_total line reads its own count, Stats returns
// their sum and the no_geolocation count, and the processed and miss
// families render those two.
func TestAssignOutcomesCountOnce(t *testing.T) {
	reg, rr, cases := outcomeCases(t)
	var sum int
	for r, c := range cases {
		for range r + 1 {
			if got := c.pol.Assign(c.from, c.pfx).Reason; got != Reason(r) {
				t.Fatalf("Assign(%v, %v) = %v, want %v", c.from, c.pfx, got, Reason(r))
			}
		}
		if got := assignCount(reg, Reason(r)); got != r+1 {
			t.Errorf("core_assignments_total{reason=%q} = %d, want %d", Reason(r), got, r+1)
		}
		sum += assignCount(reg, Reason(r))
	}
	processed, misses := rr.Stats()
	if processed != uint64(sum) || misses != uint64(assignCount(reg, ReasonNoGeolocation)) {
		t.Errorf("Stats() = (%d, %d), want (%d, %d): the rendered outcomes", processed, misses, sum, assignCount(reg, ReasonNoGeolocation))
	}
	out := reg.Render()
	for _, want := range []string{
		fmt.Sprintf("core_routes_processed_total %d\n", processed),
		fmt.Sprintf("core_geo_misses_total %d\n", misses),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAssignAdaptiveLineAppearsWithOverride: core_assignments_total
// renders reason="adaptive" only once a SetOverride names a registered
// egress, at 0 until an override decides an Assign.
func TestAssignAdaptiveLineAppearsWithOverride(t *testing.T) {
	db := geoip.New()
	reg := telemetry.New()
	rr := New(Config{DB: db, Telemetry: reg})
	line := `core_assignments_total{reason="adaptive"} `
	if strings.Contains(reg.Render(), line) {
		t.Fatal("adaptive line rendered before any override")
	}
	lon := addr("10.0.10.1")
	if err := rr.SetOverride(prefix("10.1.0.0/16"), lon); err == nil {
		t.Fatal("override on an unregistered egress accepted")
	}
	if strings.Contains(reg.Render(), line) {
		t.Fatal("adaptive line rendered after a refused override")
	}
	rr.AddEgress(Egress{ID: lon, Pos: geo.MustLookup("London").Pos})
	if err := rr.SetOverride(prefix("10.1.0.0/16"), lon); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reg.Render(), line+"0\n") {
		t.Errorf("adaptive line not rendered at 0 after the first override:\n%s", reg.Render())
	}
}

// assignCount reads core_assignments_total{reason=r} from reg's
// rendered metrics.
func assignCount(reg *telemetry.Registry, r Reason) int {
	prefix := fmt.Sprintf("core_assignments_total{reason=%q} ", r.String())
	for _, line := range strings.Split(reg.Render(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			var n int
			fmt.Sscan(v, &n)
			return n
		}
	}
	return 0
}

// TestAssignMatchesDistance is the distance rows' differential oracle:
// over a random database of IPv4, IPv6 and IPv4-mapped records, nested
// prefixes, a replaced record and a miss, every query prefix at every
// egress assigns, under both preference functions, bit for bit what
// cfg.LocalPref(geo.DistanceKm(egress, record)) gives for the record a
// linear longest-prefix scan finds.
func TestAssignMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	pos := func() geo.LatLon { return geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180} }
	db := geoip.New()
	ref := map[netip.Prefix]geo.LatLon{} // by the prefix a record answers as
	var queries []netip.Prefix
	insert := func(p netip.Prefix) {
		at := pos()
		if err := db.Insert(geoip.Record{Prefix: p, Pos: at}); err != nil {
			t.Fatal(err)
		}
		stored := p
		if p.Addr().Is4In6() {
			stored = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()-96)
		}
		ref[stored] = at
		queries = append(queries, p)
	}
	for i := 0; i < 40; i++ {
		a4 := [4]byte{10, byte(rng.IntN(4)), byte(rng.IntN(256)), byte(rng.IntN(256))}
		var a16 [16]byte
		a16[0], a16[1], a16[2] = 0x20, 0x01, byte(rng.IntN(4))
		for j := 3; j < 16; j++ {
			a16[j] = byte(rng.IntN(256))
		}
		v4 := netip.PrefixFrom(netip.AddrFrom4(a4), 8+rng.IntN(25)).Masked()
		v6 := netip.PrefixFrom(netip.AddrFrom16(a16), 16+rng.IntN(113)).Masked()
		switch i % 4 {
		case 0, 1:
			insert(v4)
		case 2:
			insert(v6)
		case 3:
			insert(netip.PrefixFrom(netip.AddrFrom16(netip.AddrFrom4(a4).As16()), 96+v4.Bits()).Masked())
		}
	}
	// A covering prefix and a more-specific under it nest, and a
	// replaced record answers with its newest position.
	insert(prefix("10.0.0.0/8"))
	insert(prefix("10.1.2.0/24"))
	insert(prefix("10.1.2.0/24"))
	insert(prefix("2001::/16"))
	// Query more-specifics that no record stores, and a miss.
	for _, p := range queries {
		if p.Bits() < p.Addr().BitLen() {
			queries = append(queries, netip.PrefixFrom(p.Addr(), p.Bits()+1))
		}
	}
	miss := prefix("192.0.2.0/24")
	queries = append(queries, miss)

	egresses := make([]Egress, 6)
	for i := range egresses {
		egresses[i] = Egress{ID: netip.AddrFrom4([4]byte{10, 255, 0, byte(i + 1)}), Pos: pos()}
	}
	for _, lp := range []struct {
		name string
		fn   LocalPrefFunc
	}{{"linear", LinearLocalPref}, {"step", StepLocalPref}} {
		rr := New(Config{DB: db, LocalPref: lp.fn})
		for _, e := range egresses {
			rr.AddEgress(e)
		}
		for _, q := range queries {
			at, ok := longestMatch(ref, q)
			if ok == (q == miss) {
				t.Fatalf("%v: reference match %v", q, ok)
			}
			for _, e := range egresses {
				dec := rr.Assign(e.ID, q)
				if !ok {
					if dec != (Decision{Reason: ReasonNoGeolocation}) {
						t.Errorf("%s: Assign(%v, %v) = %+v, want a miss", lp.name, e.ID, q, dec)
					}
					continue
				}
				d := geo.DistanceKm(e.Pos, at)
				if math.Float64bits(dec.DistanceKm) != math.Float64bits(d) || dec.LocalPref != lp.fn(d) || dec.Reason != ReasonGeo {
					t.Errorf("%s: Assign(%v, %v) = %+v, want LocalPref %d at %v km", lp.name, e.ID, q, dec, lp.fn(d), d)
				}
			}
		}
	}
}

// longestMatch scans ref for the longest prefix holding q's first
// address, an IPv4-mapped one as the IPv4 address it maps.
func longestMatch(ref map[netip.Prefix]geo.LatLon, q netip.Prefix) (geo.LatLon, bool) {
	a := q.Masked().Addr().Unmap()
	best := -1
	var at geo.LatLon
	for p, pos := range ref {
		if p.Bits() > best && p.Contains(a) {
			best, at = p.Bits(), pos
		}
	}
	return at, best >= 0
}

// TestAssignFollowsGeography: a row built before the database changed
// is never read. After New, an Insert that moves a prefix, an Insert of
// a new record and an AddEgress (a new router, and a registered one
// moved) each show in the next Assign.
func TestAssignFollowsGeography(t *testing.T) {
	rr, db := testRR(t)
	ams, hk := addr("10.0.1.1"), addr("10.0.3.1")
	p := prefix("10.1.0.0/16")
	want := func(step string, from netip.Addr, q netip.Prefix, egress, record string) {
		t.Helper()
		d := geo.DistanceKm(geo.MustLookup(egress).Pos, geo.MustLookup(record).Pos)
		if dec := rr.Assign(from, q); dec.DistanceKm != d || dec.LocalPref != LinearLocalPref(d) {
			t.Errorf("%s: Assign(%v, %v) = %+v, want %v km (%s to %s)", step, from, q, dec, d, egress, record)
		}
	}
	want("built", ams, p, "Amsterdam", "Amsterdam")

	// The Amsterdam prefix moves to Hong Kong: same record index.
	if err := db.Insert(geoip.Record{Prefix: p, Pos: geo.MustLookup("HongKong").Pos}); err != nil {
		t.Fatal(err)
	}
	want("record moved", ams, p, "Amsterdam", "HongKong")
	want("record moved", hk, p, "HongKong", "HongKong")

	// A new more-specific: an index past every row's end.
	sub := prefix("10.1.7.0/24")
	if err := db.Insert(geoip.Record{Prefix: sub, Pos: geo.MustLookup("Sydney").Pos}); err != nil {
		t.Fatal(err)
	}
	want("record added", hk, sub, "HongKong", "Sydney")
	want("record added", hk, p, "HongKong", "HongKong")

	// A new egress, and a registered one at a new place; each gets a
	// row at the current generation.
	syd := addr("10.0.8.1")
	rr.AddEgress(Egress{ID: syd, Pos: geo.MustLookup("Sydney").Pos, PoP: "SYD"})
	rr.AddEgress(Egress{ID: ams, Pos: geo.MustLookup("Tokyo").Pos, PoP: "AMS"})
	want("egress added", syd, sub, "Sydney", "Sydney")
	want("egress moved", ams, sub, "Tokyo", "Sydney")
	if row := rr.Policy().egresses[syd].row; row.gen != db.Generation() || len(row.km) != db.Len()+1 {
		t.Errorf("new egress's row at generation %d over %d records, DB at %d over %d", row.gen, len(row.km)-1, db.Generation(), db.Len())
	}

	// Registering an unchanged egress again rebuilds only a stale row.
	before := rr.Policy()
	rr.AddEgress(Egress{ID: syd, Pos: geo.MustLookup("Sydney").Pos, PoP: "SYD"})
	if rr.Policy() != before {
		t.Error("re-registering an unchanged egress over a current row published a policy")
	}
	if rr.Policy().egresses[hk].row.gen == db.Generation() {
		t.Fatal("HK's row is current before any rebuild")
	}
	rr.AddEgress(Egress{ID: hk, Pos: geo.MustLookup("HongKong").Pos, PoP: "HK"})
	if row := rr.Policy().egresses[hk].row; row.gen != db.Generation() {
		t.Errorf("re-registering HK over a stale row left it at generation %d, DB at %d", row.gen, db.Generation())
	}
	want("row rebuilt", hk, sub, "HongKong", "Sydney")
	if got := rr.Policy().Egresses(); len(got) != 4 || got[0].ID != ams || got[0].Pos != geo.MustLookup("Tokyo").Pos || got[3].ID != syd {
		t.Errorf("Egresses = %+v", got)
	}
}
