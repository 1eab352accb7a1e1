package geoip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"
	"testing"

	"vns/internal/geo"
	"vns/internal/loss"
)

func populatedDB(t testing.TB, n int) *DB {
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
		mappedRecord(90), // an IPv4-mapped prefix shorter than /96
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

// mappedRecord is a one-record database stream, in WriteTo's format,
// holding a family-6 record for the IPv4-mapped prefix
// ::ffff:10.0.0.0/bits — a record WriteTo never writes, since Insert
// stores such a prefix as IPv4.
func mappedRecord(bits uint8) []byte {
	var buf bytes.Buffer
	for _, v := range []any{
		dbMagic, uint32(1),
		uint8(6), netip.MustParseAddr("::ffff:10.0.0.0").As16(), bits,
		float64(59.9), float64(10.7), uint8(geo.RegionEU), uint8(0),
		uint8(2), []byte("NO"),
	} {
		binary.Write(&buf, binary.BigEndian, v)
	}
	return buf.Bytes()
}

// TestPersistUnmapsMappedRecord reads an IPv4-mapped /120 from a
// crafted file: it loads as the IPv4 /24 it maps, and both address
// forms find it.
func TestPersistUnmapsMappedRecord(t *testing.T) {
	db := New()
	if _, err := db.ReadFrom(bytes.NewReader(mappedRecord(120))); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"10.0.0.9", "::ffff:10.0.0.9"} {
		rec, ok := db.Lookup(netip.MustParseAddr(a))
		if !ok || rec.Prefix != netip.MustParsePrefix("10.0.0.0/24") || rec.Country != "NO" {
			t.Errorf("Lookup(%s) = %+v, %v; want the record as 10.0.0.0/24", a, rec, ok)
		}
	}
}

// records lists a database's records in Walk order.
func records(db *DB) []Record {
	var out []Record
	db.Walk(func(r Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// FuzzReadFrom feeds the loader arbitrary streams: ReadFrom never
// panics, and a database it accepts round-trips through WriteTo and
// ReadFrom to the same records.
func FuzzReadFrom(f *testing.F) {
	var valid bytes.Buffer
	populatedDB(f, 20).WriteTo(&valid)
	f.Add(valid.Bytes())
	f.Add(mappedRecord(120))
	f.Add(mappedRecord(90))

	f.Fuzz(func(t *testing.T, data []byte) {
		db := New()
		if _, err := db.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := db.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo an accepted database: %v", err)
		}
		back := New()
		if _, err := back.ReadFrom(&buf); err != nil {
			t.Fatalf("ReadFrom WriteTo's output: %v", err)
		}
		if got, want := records(back), records(db); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", got, want)
		}
	})
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
