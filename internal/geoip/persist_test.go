package geoip

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"vns/internal/geo"
	"vns/internal/loss"
)

func populatedDB(t *testing.T, n int) *DB {
	t.Helper()
	db := New()
	rng := loss.NewRNG(9)
	places := catalog()
	for i := 0; i < n; i++ {
		p := places[rng.Intn(len(places))]
		addr := netip.AddrFrom4([4]byte{byte(1 + i/65536), byte(i >> 8), byte(i), 0})
		rec := Record{
			Prefix:  netip.PrefixFrom(addr, 24).Masked(),
			Pos:     p.Pos,
			Country: p.Country,
			Region:  p.Region,
			Stale:   i%7 == 0,
		}
		if err := db.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	// One IPv6 record for coverage.
	db.Insert(Record{Prefix: netip.MustParsePrefix("2001:db8::/32"), Pos: geo.MustLookup("Oslo").Pos, Country: "NO", Region: geo.RegionEU})
	return db
}

func TestPersistRoundTrip(t *testing.T) {
	db := populatedDB(t, 500)
	var buf bytes.Buffer
	wrote, err := db.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", wrote, buf.Len())
	}

	out := New()
	readN, err := out.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if readN != wrote {
		t.Errorf("ReadFrom consumed %d bytes, wrote %d", readN, wrote)
	}
	if out.Len() != db.Len() {
		t.Fatalf("round-trip size %d vs %d", out.Len(), db.Len())
	}
	db.Walk(func(rec Record) bool {
		got, ok := out.LookupPrefix(rec.Prefix)
		if !ok {
			t.Fatalf("missing %v after round trip", rec.Prefix)
		}
		if got.Pos != rec.Pos || got.Country != rec.Country ||
			got.Region != rec.Region || got.Stale != rec.Stale || got.Prefix != rec.Prefix {
			t.Fatalf("record mismatch:\n got %+v\nwant %+v", got, rec)
		}
		return true
	})
}

func TestPersistEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := New()
	if _, err := out.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("empty round trip not empty")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a database"),
		func() []byte { // good magic, truncated body
			var buf bytes.Buffer
			populatedDB(t, 10).WriteTo(&buf)
			return buf.Bytes()[:20]
		}(),
		func() []byte { // corrupted family byte
			var buf bytes.Buffer
			populatedDB(t, 3).WriteTo(&buf)
			b := buf.Bytes()
			b[12] = 9
			return b
		}(),
	}
	for i, c := range cases {
		db := New()
		if _, err := db.ReadFrom(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: accepted garbage", i)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestPersistMergesIntoExisting(t *testing.T) {
	a := New()
	a.Insert(Record{Prefix: netip.MustParsePrefix("9.9.9.0/24"), Country: "KEEP", Pos: geo.LatLon{}})
	var buf bytes.Buffer
	src := New()
	src.Insert(Record{Prefix: netip.MustParsePrefix("8.8.8.0/24"), Country: "NEW", Pos: geo.LatLon{}})
	src.WriteTo(&buf)
	if _, err := a.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Errorf("len = %d, want 2 (merge)", a.Len())
	}
	if rec, ok := a.LookupPrefix(netip.MustParsePrefix("9.9.9.0/24")); !ok || rec.Country != "KEEP" {
		t.Error("existing record lost")
	}
}

func BenchmarkPersistWrite(b *testing.B) {
	db := New()
	rng := loss.NewRNG(1)
	for i := 0; i < 10000; i++ {
		addr := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(200)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		db.Insert(Record{Prefix: netip.PrefixFrom(addr, 24).Masked(), Country: "XX"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := db.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
