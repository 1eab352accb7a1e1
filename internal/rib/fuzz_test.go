package rib

import (
	"net/netip"
	"testing"

	"vns/internal/bgp"
)

// FuzzCompareAttrs pins the split of the decision process: over route
// pairs decoded from the fuzz input, CompareAttrs is antisymmetric, a
// nonzero CompareAttrs is Compare's answer, and CompareAttrs ignores
// the learning context (EBGP, IGPMetric, PeerID, PeerAddr,
// ClusterList), which is what lets a caller rank routes once for every
// vantage.
func FuzzCompareAttrs(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 2, 1, 0, 1, 0, 1, 2, 7}, []byte{3, 2, 1, 0, 1, 0, 1, 2, 9})
	f.Add([]byte{0, 1, 4, 2}, []byte{5, 1, 4, 2, 1, 1, 200})
	f.Add([]byte{1, 2, 9, 3, 1, 1, 0, 9, 4, 4, 2, 2, 1}, []byte{4, 0, 0, 1, 0, 50, 1, 1, 9, 3, 3, 0})

	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, b := fuzzRoute(ab), fuzzRoute(bb)
		c := CompareAttrs(a, b)
		if back := CompareAttrs(b, a); back != -c {
			t.Fatalf("CompareAttrs(a, b) = %d but CompareAttrs(b, a) = %d\na = %+v\nb = %+v", c, back, a, b)
		}
		if full := Compare(a, b); c != 0 && full != c {
			t.Fatalf("CompareAttrs(a, b) = %d but Compare(a, b) = %d\na = %+v\nb = %+v", c, full, a, b)
		}
		moved := *a
		moved.EBGP, moved.IGPMetric = b.EBGP, b.IGPMetric
		moved.PeerID, moved.PeerAddr = b.PeerID, b.PeerAddr
		moved.Attrs.ClusterList = b.Attrs.ClusterList
		if got := CompareAttrs(&moved, b); got != c {
			t.Fatalf("CompareAttrs moved from %d to %d when a took b's learning context\na = %+v\nb = %+v", c, got, a, b)
		}
	})
}

// fuzzRoute decodes a route from in, reading 0 once in runs out. Every
// field the decision process reads is drawn from a small range, so ties
// at any step are common.
func fuzzRoute(in []byte) *Route {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		c := in[0]
		in = in[1:]
		return c
	}
	r := &Route{Prefix: prefix("203.0.113.0/24")}
	// LOCAL_PREF 0, 50, 100 or 150, or absent (DefaultLocalPref, the
	// same as 100).
	if c := next(); c%5 != 4 {
		r.Attrs.HasLocalPref, r.Attrs.LocalPref = true, uint32(c%5)*50
	}
	for n := next() % 3; n > 0; n-- {
		c := next()
		seg := bgp.ASPathSegment{Set: c&1 != 0}
		for k := (c >> 1) % 4; k > 0; k-- {
			seg.ASNs = append(seg.ASNs, 64500+uint16(k))
		}
		r.Attrs.ASPath = append(r.Attrs.ASPath, seg)
	}
	r.Attrs.Origin = bgp.Origin(next() % 3)
	if c := next(); c&1 != 0 {
		r.Attrs.HasMED, r.Attrs.MED = true, uint32((c>>1)%3)
	}
	r.PeerAS = uint16(next() % 3)
	r.EBGP = next()&1 != 0
	r.IGPMetric = int(next() % 4)
	for n := next() % 3; n > 0; n-- {
		r.Attrs.ClusterList = append(r.Attrs.ClusterList, netip.AddrFrom4([4]byte{10, 9, 9, n}))
	}
	if c := next(); c%3 == 1 {
		r.Attrs.OriginatorID = netip.AddrFrom4([4]byte{10, 0, 0, c % 4})
	}
	r.PeerID = netip.AddrFrom4([4]byte{10, 0, 0, next() % 4})
	r.PeerAddr = netip.AddrFrom4([4]byte{192, 0, 2, next() % 4})
	return r
}
