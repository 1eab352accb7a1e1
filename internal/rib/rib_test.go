package rib

import (
	"net/netip"
	"testing"
	"testing/quick"

	"vns/internal/bgp"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func baseRoute() *Route {
	return &Route{
		Prefix: prefix("203.0.113.0/24"),
		Attrs: bgp.Attrs{
			ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}},
			NextHop: addr("192.0.2.1"),
		},
		EBGP:      true,
		PeerAS:    100,
		PeerID:    addr("10.0.0.1"),
		PeerAddr:  addr("192.0.2.1"),
		IGPMetric: 10,
	}
}

func TestCompareLocalPrefWins(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.Attrs.LocalPref, a.Attrs.HasLocalPref = 500, true
	b.Attrs.LocalPref, b.Attrs.HasLocalPref = 100, true
	// Make b otherwise strictly better so local pref must dominate.
	b.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100}}}
	b.IGPMetric = 0
	if Compare(a, b) >= 0 {
		t.Error("higher local pref should win over everything")
	}
}

func TestCompareDefaultLocalPref(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.Attrs.HasLocalPref = false
	b.Attrs.LocalPref, b.Attrs.HasLocalPref = 100, true
	b.PeerID = addr("10.0.0.2")
	// Both effectively lp=100: falls through to later steps; must not
	// treat missing as 0.
	if got := a.LocalPref(); got != DefaultLocalPref {
		t.Errorf("default local pref = %d", got)
	}
	if Compare(a, b) != -1 { // tie until router ID: 10.0.0.1 < 10.0.0.2
		t.Error("default lp should equal explicit 100 and fall to tiebreak")
	}
}

func TestCompareASPathLen(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	b.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100, 200, 300}}}
	if Compare(a, b) >= 0 {
		t.Error("shorter AS path should win")
	}
}

func TestCompareOrigin(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.Attrs.Origin = bgp.OriginIGP
	b.Attrs.Origin = bgp.OriginIncomplete
	if Compare(a, b) >= 0 {
		t.Error("lower origin should win")
	}
}

func TestCompareMEDSameNeighborOnly(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.Attrs.MED, a.Attrs.HasMED = 100, true
	b.Attrs.MED, b.Attrs.HasMED = 10, true
	// Same neighbor AS: lower MED wins.
	if Compare(b, a) >= 0 {
		t.Error("lower MED should win for same neighbor AS")
	}
	// Different neighbor AS: MED ignored, falls through to IGP metric.
	b.PeerAS = 300
	a.IGPMetric, b.IGPMetric = 1, 2
	if Compare(a, b) >= 0 {
		t.Error("MED must be ignored across different neighbor ASes")
	}
}

func TestCompareEBGPOverIBGP(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	b.EBGP = false
	b.IGPMetric = 0
	if Compare(a, b) >= 0 {
		t.Error("eBGP should beat iBGP before IGP metric")
	}
}

func TestCompareHotPotato(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.EBGP, b.EBGP = false, false
	a.IGPMetric, b.IGPMetric = 5, 50
	b.PeerID = addr("10.0.0.2")
	if Compare(a, b) >= 0 {
		t.Error("lower IGP metric (hot potato) should win")
	}
}

func TestCompareClusterListLen(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.EBGP, b.EBGP = false, false
	a.Attrs.ClusterList = []netip.Addr{addr("10.0.0.10")}
	b.Attrs.ClusterList = []netip.Addr{addr("10.0.0.10"), addr("10.0.0.11")}
	b.PeerID = addr("10.0.0.2")
	if Compare(a, b) >= 0 {
		t.Error("shorter cluster list should win")
	}
}

func TestCompareOriginatorID(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	a.Attrs.OriginatorID = addr("10.0.0.5")
	b.Attrs.OriginatorID = addr("10.0.0.9")
	if Compare(a, b) >= 0 {
		t.Error("lower originator ID should win")
	}
}

func TestComparePeerAddrFinalTiebreak(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	b.PeerAddr = addr("192.0.2.2")
	if Compare(a, b) >= 0 {
		t.Error("lower peer address should win")
	}
	b.PeerAddr = a.PeerAddr
	if Compare(a, b) != 0 {
		t.Error("identical routes should compare equal")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(lpA, lpB uint32, pathA, pathB uint8, igpA, igpB uint16, ebgpA, ebgpB bool) bool {
		mk := func(lp uint32, pathLen uint8, igp uint16, ebgp bool, id byte) *Route {
			asns := make([]uint16, pathLen%6+1)
			for i := range asns {
				asns[i] = uint16(i + 1)
			}
			return &Route{
				Prefix: prefix("10.0.0.0/8"),
				Attrs: bgp.Attrs{
					ASPath:       []bgp.ASPathSegment{{ASNs: asns}},
					LocalPref:    lp % 1000,
					HasLocalPref: true,
				},
				EBGP:      ebgp,
				PeerAS:    uint16(id),
				PeerID:    netip.AddrFrom4([4]byte{10, 0, 0, id}),
				PeerAddr:  netip.AddrFrom4([4]byte{192, 0, 2, id}),
				IGPMetric: int(igp),
			}
		}
		a := mk(lpA, pathA, igpA, ebgpA, 1)
		b := mk(lpB, pathB, igpB, ebgpB, 2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestEmpty(t *testing.T) {
	if Best(nil) != nil {
		t.Error("Best(nil) != nil")
	}
	if Best([]*Route{nil, nil}) != nil {
		t.Error("Best of nils != nil")
	}
}

func TestTableUpsertWithdraw(t *testing.T) {
	tb := newTable()
	r1 := baseRoute()
	if !tb.Upsert(r1) {
		t.Error("first route should change best")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
	// Worse route from another peer: best unchanged.
	r2 := baseRoute()
	r2.PeerID = addr("10.0.0.2")
	r2.PeerAddr = addr("192.0.2.2")
	r2.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100, 200, 300}}}
	if tb.Upsert(r2) {
		t.Error("worse route should not change best")
	}
	if got := tb.Best(r1.Prefix); got != r1 {
		t.Errorf("best = %v", got)
	}
	if got := len(tb.Candidates(r1.Prefix)); got != 2 {
		t.Errorf("candidates = %d", got)
	}
	// Withdraw the best: r2 takes over.
	if !tb.Withdraw(r1.Prefix, r1.PeerID, r1.PeerAddr) {
		t.Error("withdrawing best should change best")
	}
	if got := tb.Best(r1.Prefix); got != r2 {
		t.Errorf("best after withdraw = %v", got)
	}
	// Withdraw a peer that has no route: no change.
	if tb.Withdraw(r1.Prefix, addr("10.9.9.9"), addr("10.9.9.9")) {
		t.Error("withdrawing unknown peer should not change best")
	}
	// Withdraw last: prefix disappears.
	if !tb.Withdraw(r1.Prefix, r2.PeerID, r2.PeerAddr) {
		t.Error("withdrawing last route should change best")
	}
	if tb.Len() != 0 || tb.Best(r1.Prefix) != nil {
		t.Error("prefix should be gone")
	}
}

func TestTableUpsertReplacesSamePeer(t *testing.T) {
	tb := newTable()
	r1 := baseRoute()
	tb.Upsert(r1)
	r1b := baseRoute()
	r1b.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100}}}
	changed := tb.Upsert(r1b)
	if !changed {
		t.Error("implicit replacement should trigger reselection")
	}
	if got := len(tb.Candidates(r1.Prefix)); got != 1 {
		t.Errorf("candidates = %d, want 1 (implicit withdraw)", got)
	}
}

func TestPrefixesSorted(t *testing.T) {
	tb := NewSharded(1)
	for _, p := range []string{"10.2.0.0/16", "10.1.0.0/16", "10.1.0.0/24", "9.0.0.0/8"} {
		r := baseRoute()
		r.Prefix = prefix(p)
		tb.ApplyBatch([]Op{Announce(r)})
	}
	ps := tb.Prefixes()
	want := []string{"9.0.0.0/8", "10.1.0.0/16", "10.1.0.0/24", "10.2.0.0/16"}
	for i, w := range want {
		if ps[i] != prefix(w) {
			t.Errorf("Prefixes[%d] = %v, want %v", i, ps[i], w)
		}
	}
}

// cloneRoute returns a deep copy of the route.
func cloneRoute(r *Route) *Route {
	out := *r
	out.Attrs = r.Attrs.Clone()
	return &out
}

func TestRouteCloneAndString(t *testing.T) {
	r := baseRoute()
	c := cloneRoute(r)
	c.Attrs.ASPath[0].ASNs[0] = 999
	if r.Attrs.ASPath[0].ASNs[0] == 999 {
		t.Error("Clone not deep")
	}
	if s := r.String(); s == "" {
		t.Error("empty String")
	}
}

func BenchmarkCompare(b *testing.B) {
	x, y := baseRoute(), baseRoute()
	y.PeerID = addr("10.0.0.2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(x, y)
	}
}

func BenchmarkTableUpsert(b *testing.B) {
	tb := newTable()
	routes := make([]*Route, 1000)
	for i := range routes {
		r := baseRoute()
		r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		routes[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Upsert(routes[i%len(routes)])
	}
}

func TestUpsertIdenticalReannouncementNoChange(t *testing.T) {
	tb := newTable()
	if !tb.Upsert(baseRoute()) {
		t.Fatal("first announcement must change best")
	}
	// The same peer re-announces the same route with identical
	// attributes: a fresh *Route pointer, equal by value. This must NOT
	// report a best-path change (regression: pointer comparison made
	// every periodic re-announcement look like a change, churning
	// re-advertisement and FIB recompiles downstream).
	if tb.Upsert(baseRoute()) {
		t.Error("attribute-identical re-announcement reported bestChanged")
	}
	// A genuinely different attribute must still report a change.
	r := baseRoute()
	r.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100}}}
	if !tb.Upsert(r) {
		t.Error("shorter AS path should change best")
	}
	// And re-announcing the now-best route again is again a no-op.
	r2 := baseRoute()
	r2.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100}}}
	if tb.Upsert(r2) {
		t.Error("re-announcement of changed best reported bestChanged")
	}
}

func TestRouteEqual(t *testing.T) {
	a, b := baseRoute(), baseRoute()
	if !a.Equal(b) {
		t.Error("identical routes must be Equal")
	}
	var nilRoute *Route
	if !nilRoute.Equal(nil) {
		t.Error("nil.Equal(nil) must be true")
	}
	if a.Equal(nil) || nilRoute.Equal(a) {
		t.Error("nil vs non-nil must be unequal")
	}
	b.Attrs.Communities = []bgp.Community{42}
	if a.Equal(b) {
		t.Error("differing communities must be unequal")
	}
	b = baseRoute()
	b.IGPMetric++
	if a.Equal(b) {
		t.Error("differing IGP metric must be unequal")
	}
}

func TestTableLookupLongestPrefix(t *testing.T) {
	tb := newTable()
	add := func(p string, peerID string) {
		r := baseRoute()
		r.Prefix = prefix(p)
		r.PeerID = addr(peerID)
		tb.Upsert(r)
	}
	add("0.0.0.0/0", "10.0.0.1")
	add("10.0.0.0/8", "10.0.0.2")
	add("10.1.0.0/16", "10.0.0.3")
	add("10.1.2.0/24", "10.0.0.4")

	cases := []struct {
		addr string
		want string // expected prefix
	}{
		{"10.1.2.3", "10.1.2.0/24"},  // most specific wins
		{"10.1.9.9", "10.1.0.0/16"},  // covered by /8 and /16
		{"10.200.0.1", "10.0.0.0/8"}, // only the /8 covers
		{"192.0.2.1", "0.0.0.0/0"},   // default route catches the rest
	}
	for _, c := range cases {
		got := tb.Lookup(addr(c.addr))
		if got == nil || got.Prefix != prefix(c.want) {
			t.Errorf("Lookup(%s) = %v, want %s", c.addr, got, c.want)
		}
	}

	// 4-in-6 mapped addresses unmap before matching.
	if got := tb.Lookup(addr("::ffff:10.1.2.3")); got == nil || got.Prefix != prefix("10.1.2.0/24") {
		t.Errorf("4-in-6 Lookup = %v, want 10.1.2.0/24", got)
	}

	// Without a default route, uncovered addresses miss.
	tb2 := newTable()
	r := baseRoute()
	r.Prefix = prefix("172.16.0.0/12")
	tb2.Upsert(r)
	if got := tb2.Lookup(addr("8.8.8.8")); got != nil {
		t.Errorf("uncovered address returned %v, want nil", got)
	}
	if got := tb2.Lookup(addr("172.31.0.1")); got == nil {
		t.Error("covered address missed")
	}
}
