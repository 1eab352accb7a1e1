package fib

import (
	"net/netip"

	"vns/internal/detsort"
)

// Linear is the reference longest-prefix-match implementation: a plain
// scan over all entries, the trivially-correct oracle the trie and its
// delta compiles are differentially tested, fuzzed and benchmarked
// against (TestTrieMatchesLinearRandom, FuzzFIB, FuzzDeltaCompile).
type Linear struct {
	entries []Entry
}

// NewLinear builds a reference LPM over a copy of entries, applying the
// same normalization as Compile (IPv4 only, masked, later duplicates
// win).
func NewLinear(entries []Entry) *Linear {
	dedup := make(map[netip.Prefix]NextHop, len(entries))
	for _, e := range entries {
		p := e.Prefix
		if p.Addr().Is4In6() {
			p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits())
		}
		if !p.Addr().Is4() || !e.NextHop.IsValid() {
			continue
		}
		dedup[p.Masked()] = e.NextHop
	}
	l := &Linear{entries: make([]Entry, 0, len(dedup))}
	for _, p := range detsort.KeysFunc(dedup, detsort.PrefixCompare) {
		l.entries = append(l.entries, Entry{Prefix: p, NextHop: dedup[p]})
	}
	return l
}

// Lookup returns the longest-prefix-match next hop for addr by scanning
// every entry.
func (l *Linear) Lookup(addr netip.Addr) (NextHop, bool) {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.Is4() {
		return NextHop{}, false
	}
	best := -1
	for i := range l.entries {
		p := l.entries[i].Prefix
		if !p.Contains(addr) {
			continue
		}
		if best == -1 || p.Bits() > l.entries[best].Prefix.Bits() {
			best = i
		}
	}
	if best == -1 {
		return NextHop{}, false
	}
	return l.entries[best].NextHop, true
}

// Size returns the number of installed prefixes.
func (l *Linear) Size() int { return len(l.entries) }
