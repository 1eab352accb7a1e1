package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Reference distances from standard great-circle calculators (±1%).
	cases := []struct {
		a, b string
		km   float64
	}{
		{"London", "NewYork", 5570},
		{"Amsterdam", "Frankfurt", 365},
		{"Singapore", "Sydney", 6300},
		{"SanJose", "Tokyo", 8280},
		{"Oslo", "Amsterdam", 915},
		{"HongKong", "Singapore", 2580},
	}
	for _, c := range cases {
		a, b := MustLookup(c.a), MustLookup(c.b)
		got := DistanceKm(a.Pos, b.Pos)
		if math.Abs(got-c.km)/c.km > 0.02 {
			t.Errorf("DistanceKm(%s, %s) = %.0f km, want ~%.0f km", c.a, c.b, got, c.km)
		}
	}
}

func TestDistanceZero(t *testing.T) {
	p := LatLon{52.37, 4.90}
	if d := DistanceKm(p, p); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLon{clampLat(lat1), clampLon(lon1)}
		b := LatLon{clampLat(lat2), clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLon{clampLat(lat1), clampLon(lon1)}
		b := LatLon{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		// Maximum great-circle distance is half the circumference.
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(l1, g1, l2, g2, l3, g3 float64) bool {
		a := LatLon{clampLat(l1), clampLon(g1)}
		b := LatLon{clampLat(l2), clampLon(g2)}
		c := LatLon{clampLat(l3), clampLon(g3)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func TestRTTMs(t *testing.T) {
	a, b := MustLookup("Amsterdam"), MustLookup("NewYork")
	rtt := RTTMs(a.Pos, b.Pos)
	// Transatlantic AMS-NYC fiber RTT is ~75-90 ms in practice.
	if rtt < 50 || rtt > 100 {
		t.Errorf("AMS-NYC modeled RTT = %.1f ms, want 50-100 ms", rtt)
	}
}

func TestLatLonValid(t *testing.T) {
	valid := []LatLon{{0, 0}, {90, 180}, {-90, -180}, {52.4, 4.9}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []LatLon{{91, 0}, {0, 181}, {-91, 0}, {0, -181}, {math.NaN(), 0}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestPlacesCatalog(t *testing.T) {
	if len(places) < 80 {
		t.Fatalf("catalog has %d places, want >= 80", len(places))
	}
	seen := map[string]bool{}
	for _, p := range places {
		if seen[p.Name] {
			t.Errorf("duplicate place name %q", p.Name)
		}
		seen[p.Name] = true
		if !p.Pos.Valid() {
			t.Errorf("place %q has invalid position %v", p.Name, p.Pos)
		}
		if p.Region == RegionUnknown {
			t.Errorf("place %q has unknown region", p.Name)
		}
	}
}

func TestPlacesInRegionAllRegionsPopulated(t *testing.T) {
	for _, r := range Regions() {
		if got := PlacesInRegion(r); len(got) == 0 {
			t.Errorf("region %v has no places", r)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := placeByName["Amsterdam"]; !ok {
		t.Error("Amsterdam missing")
	}
	if _, ok := placeByName["Atlantis"]; ok {
		t.Error("Atlantis should not exist")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of unknown place did not panic")
		}
	}()
	MustLookup("Atlantis")
}

func TestCountryCentroid(t *testing.T) {
	c, ok := CountryCentroid("RU")
	if !ok {
		t.Fatal("no centroid for RU")
	}
	// The Russian centroid must sit east of Moscow (pulled by Novosibirsk),
	// which is what makes the paper's Russian outlier cluster appear closer
	// to Asian PoPs than European ones.
	moscow := MustLookup("Moscow")
	if c.Lon <= moscow.Pos.Lon {
		t.Errorf("RU centroid lon = %.1f, want > Moscow (%.1f)", c.Lon, moscow.Pos.Lon)
	}
	if _, ok := CountryCentroid("ZZ"); ok {
		t.Error("centroid for unknown country should fail")
	}
}

func TestPoPRegionMapping(t *testing.T) {
	cases := map[Region]Region{
		RegionEU: RegionEU, RegionNA: RegionNA, RegionAP: RegionAP,
		RegionOC: RegionOC, RegionME: RegionEU, RegionAF: RegionEU,
		RegionSA: RegionNA, RegionUnknown: RegionEU,
	}
	for in, want := range cases {
		if got := PoPRegion(in); got != want {
			t.Errorf("PoPRegion(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestRegionString(t *testing.T) {
	if RegionEU.String() != "EU" || RegionAP.String() != "AP" {
		t.Error("region names wrong")
	}
	if Region(200).String() != "??" {
		t.Error("out-of-range region should print ??")
	}
}

func BenchmarkDistanceKm(b *testing.B) {
	a1, a2 := MustLookup("Amsterdam").Pos, MustLookup("Sydney").Pos
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceKm(a1, a2)
	}
}
