// Package geoip implements the geolocation database the geo-based route
// reflector queries: a longest-prefix match (lpm's stride trie, one per
// address family) from IP prefixes to geographic records, plus the
// error model that makes the synthetic database behave like a
// commercial one.
//
// The paper uses the MaxMind database exposed to the Quagga route
// reflector through a SQL interface. Poese et al. (SIGCOMM CCR 2011)
// found such databases geolocate ~60% of prefixes within 100 km and are
// country-accurate but city-sloppy; the paper further identifies two
// pathological error families that produce Figure 3's outlier clusters:
// country-centroid collapse (Russian prefixes pinned to the center of
// Russia) and stale-registry records after mergers (Indian prefixes
// geolocated to Canada). The Corruptor type injects all three.
package geoip

import (
	"fmt"
	"net/netip"
	"slices"

	"vns/internal/detsort"
	"vns/internal/geo"
	"vns/internal/lpm"
)

// Record is one geolocation database entry.
type Record struct {
	Prefix  netip.Prefix
	Pos     geo.LatLon
	Country string
	Region  geo.Region
	// Stale marks records whose location predates an ownership change,
	// mimicking RIR/Whois-derived entries that survived an M&A.
	Stale bool
}

// DB is a longest-prefix-match geolocation database. It is safe for
// concurrent readers after construction; writers must not race readers.
//
// Each record has a 1-based index (IndexPrefix, At) that names it for
// the database's life: Insert appends a new prefix's record and replaces
// an existing prefix's in place. Every Insert bumps the generation
// (Generation), so a value derived from the records — the GeoRR's
// per-egress distance rows, one entry per index — is current exactly
// while the generation it was derived at still is.
type DB struct {
	// v4 and v6 map each stored prefix of their family to its 1-based
	// index in recs.
	v4, v6 lpm.Trie
	// recs holds the records in insertion order.
	recs []Record
	// index maps a stored prefix to its index in recs. The tries cannot
	// answer an exact match: a prefix whose every slot longer prefixes
	// own (10.0.0.0/7 under 10.0.0.0/8 and 11.0.0.0/8) leaves no trace
	// in them.
	index map[netip.Prefix]int32
	// gen counts the Inserts that succeeded.
	gen uint64
}

// New returns an empty database.
func New() *DB {
	return &DB{index: make(map[netip.Prefix]int32)}
}

// Len returns the number of records in the database.
func (d *DB) Len() int { return len(d.recs) }

// Insert adds or replaces the record for rec.Prefix. An IPv4-mapped IPv6
// prefix of 96 bits or more is stored as the IPv4 prefix it maps
// (::ffff:10.0.0.0/120 as 10.0.0.0/24). It returns an error if the
// prefix is invalid or a shorter IPv4-mapped one.
func (d *DB) Insert(rec Record) error {
	p, ok := lpm.Canonical(rec.Prefix)
	if !ok {
		return fmt.Errorf("geoip: invalid prefix %v (an IPv4-mapped one must be /96 or longer)", rec.Prefix)
	}
	rec.Prefix = p
	d.gen++
	if i, ok := d.index[p]; ok {
		d.recs[i-1] = rec
		return nil
	}
	d.recs = append(d.recs, rec)
	i := int32(len(d.recs))
	d.index[p] = i
	if p.Addr().Is4() {
		d.v4.Insert(p, i)
	} else {
		d.v6.Insert(p, i)
	}
	return nil
}

// Generation returns the number of Inserts the database has taken.
func (d *DB) Generation() uint64 { return d.gen }

// At returns the record with 1-based index i, 1 ≤ i ≤ Len().
func (d *DB) At(i int) Record { return d.recs[i-1] }

// Lookup returns the longest-prefix-match record for addr; an
// IPv4-mapped IPv6 address is looked up as the IPv4 address it maps.
//
//vnslint:hotpath
func (d *DB) Lookup(addr netip.Addr) (Record, bool) {
	i := d.lookup(addr)
	if i == 0 {
		return Record{}, false
	}
	return d.recs[i-1], true
}

// LookupPrefix returns the record covering the first address of p, the
// same convention the paper's probing uses (probe the first IP in each
// destination prefix).
func (d *DB) LookupPrefix(p netip.Prefix) (Record, bool) {
	i := d.IndexPrefix(p)
	if i == 0 {
		return Record{}, false
	}
	return d.recs[i-1], true
}

// IndexPrefix returns the index of the record LookupPrefix(p) returns,
// or 0 when it returns none. Every GeoRR assignment makes one.
//
//vnslint:hotpath
func (d *DB) IndexPrefix(p netip.Prefix) int {
	if !p.IsValid() {
		return 0
	}
	return int(d.lookup(p.Masked().Addr()))
}

// lookup returns the index of addr's longest-prefix-match record, 0 for
// none.
func (d *DB) lookup(addr netip.Addr) int32 {
	addr = addr.Unmap()
	switch {
	case addr.Is4():
		a := addr.As4()
		return d.v4.Lookup(a[:])
	case addr.Is6():
		a := addr.As16()
		return d.v6.Lookup(a[:])
	}
	return 0
}

// Walk visits every record in prefix order (detsort.PrefixCompare:
// IPv4 before IPv6, then by address, then by length, so a prefix comes
// before every prefix it covers). Returning false from fn stops the
// walk.
func (d *DB) Walk(fn func(Record) bool) {
	recs := slices.Clone(d.recs)
	slices.SortFunc(recs, func(a, b Record) int { return detsort.PrefixCompare(a.Prefix, b.Prefix) })
	for _, rec := range recs {
		if !fn(rec) {
			return
		}
	}
}
