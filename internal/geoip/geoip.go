// Package geoip implements the geolocation database the geo-based route
// reflector queries: a longest-prefix-match trie from IP prefixes to
// geographic records, plus the error model that makes the synthetic
// database behave like a commercial one.
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

	"vns/internal/geo"
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
type DB struct {
	v4   *trieNode
	v6   *trieNode
	size int
}

type trieNode struct {
	child [2]*trieNode
	rec   *Record // non-nil if a record terminates here
}

// New returns an empty database.
func New() *DB {
	return &DB{v4: &trieNode{}, v6: &trieNode{}}
}

// Len returns the number of records in the database.
func (d *DB) Len() int { return d.size }

// Insert adds or replaces the record for rec.Prefix. An IPv4-mapped IPv6
// prefix of 96 bits or more is stored as the IPv4 prefix it maps
// (::ffff:10.0.0.0/120 as 10.0.0.0/24). It returns an error if the
// prefix is invalid or a shorter IPv4-mapped one.
func (d *DB) Insert(rec Record) error {
	if !rec.Prefix.IsValid() {
		return fmt.Errorf("geoip: invalid prefix %v", rec.Prefix)
	}
	if a := rec.Prefix.Addr(); a.Is4In6() {
		if rec.Prefix.Bits() < 96 {
			return fmt.Errorf("geoip: IPv4-mapped prefix %v shorter than /96", rec.Prefix)
		}
		rec.Prefix = netip.PrefixFrom(a.Unmap(), rec.Prefix.Bits()-96)
	}
	rec.Prefix = rec.Prefix.Masked()
	n := d.root(rec.Prefix.Addr())
	bits := rec.Prefix.Bits()
	addr := rec.Prefix.Addr().As16()
	off := addrBitOffset(rec.Prefix.Addr())
	for i := 0; i < bits; i++ {
		b := bitAt(addr, off+i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	if n.rec == nil {
		d.size++
	}
	r := rec
	n.rec = &r
	return nil
}

// Lookup returns the longest-prefix-match record for addr; an
// IPv4-mapped IPv6 address is looked up as the IPv4 address it maps.
func (d *DB) Lookup(addr netip.Addr) (Record, bool) {
	if !addr.IsValid() {
		return Record{}, false
	}
	addr = addr.Unmap()
	n := d.root(addr)
	as16 := addr.As16()
	off := addrBitOffset(addr)
	maxBits := addr.BitLen()
	var best *Record
	if n.rec != nil {
		best = n.rec
	}
	for i := 0; i < maxBits; i++ {
		b := bitAt(as16, off+i)
		n = n.child[b]
		if n == nil {
			break
		}
		if n.rec != nil {
			best = n.rec
		}
	}
	if best == nil {
		return Record{}, false
	}
	return *best, true
}

// LookupPrefix returns the record covering the first address of p, the
// same convention the paper's probing uses (probe the first IP in each
// destination prefix).
func (d *DB) LookupPrefix(p netip.Prefix) (Record, bool) {
	if !p.IsValid() {
		return Record{}, false
	}
	return d.Lookup(p.Masked().Addr())
}

// Walk visits every record in the database in trie order. Returning
// false from fn stops the walk.
func (d *DB) Walk(fn func(Record) bool) {
	var walk func(n *trieNode) bool
	walk = func(n *trieNode) bool {
		if n == nil {
			return true
		}
		if n.rec != nil {
			if !fn(*n.rec) {
				return false
			}
		}
		return walk(n.child[0]) && walk(n.child[1])
	}
	_ = walk(d.v4) && walk(d.v6)
}

func (d *DB) root(addr netip.Addr) *trieNode {
	if addr.Is4() {
		return d.v4
	}
	return d.v6
}

// addrBitOffset returns the starting bit of the address within its As16
// representation: IPv4 addresses occupy the final 4 bytes.
func addrBitOffset(addr netip.Addr) int {
	if addr.Is4() {
		return 96
	}
	return 0
}

func bitAt(a [16]byte, i int) int {
	return int(a[i/8]>>(7-i%8)) & 1
}
