package rib

import (
	"net/netip"
	"testing"

	"vns/internal/bgp"
)

// decisionRoute builds a Route for the decision-process table below. The
// base route is deliberately mid-range at every step so a test case can
// make either candidate win by moving one attribute in either direction.
func decisionRoute(mut func(*Route)) *Route {
	r := &Route{
		Prefix: prefix("203.0.113.0/24"),
		Attrs: bgp.Attrs{
			ASPath:       []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}},
			Origin:       bgp.OriginEGP,
			HasLocalPref: true,
			LocalPref:    100,
			HasMED:       true,
			MED:          50,
		},
		EBGP:      false,
		PeerAS:    100,
		PeerID:    addr("10.0.5.5"),
		PeerAddr:  addr("192.0.2.5"),
		IGPMetric: 40,
	}
	if mut != nil {
		mut(r)
	}
	return r
}

// TestDecisionProcessTable walks the full RFC 4271 §9.1.2.2 order (plus
// the RFC 4456 refinements) one step at a time. In every case the two
// candidates are identical except for the step under test and every step
// *below* it, where b is made strictly better — proving the step under
// test actually dominates everything after it rather than winning by
// coincidence.
func TestDecisionProcessTable(t *testing.T) {
	cases := []struct {
		name string
		a    func(*Route) // mutation making a win at the step under test
		b    func(*Route) // mutation making b win at every later step
	}{
		{
			name: "local-pref beats shorter as-path",
			a:    func(r *Route) { r.Attrs.LocalPref = 200 },
			b:    func(r *Route) { r.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100}}} },
		},
		{
			name: "as-path length beats origin",
			a:    func(r *Route) { r.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: []uint16{100}}} },
			b:    func(r *Route) { r.Attrs.Origin = bgp.OriginIGP },
		},
		{
			name: "as-set counts one regardless of size",
			a: func(r *Route) {
				// SEQ(100) + SET(5 ASNs) counts as length 2, tying b's
				// plain two-hop path; a then wins at the origin step. If
				// the SET's members each counted, a would lose on length
				// and never reach origin.
				r.Attrs.ASPath = []bgp.ASPathSegment{
					{ASNs: []uint16{100}},
					{Set: true, ASNs: []uint16{1, 2, 3, 4, 5}},
				}
				r.Attrs.Origin = bgp.OriginIGP
			},
			b: func(r *Route) { r.Attrs.MED = 10 },
		},
		{
			name: "origin beats med",
			a:    func(r *Route) { r.Attrs.Origin = bgp.OriginIGP },
			b:    func(r *Route) { r.Attrs.MED = 10 },
		},
		{
			name: "med beats ebgp-over-ibgp",
			a:    func(r *Route) { r.Attrs.MED = 10 },
			b:    func(r *Route) { r.EBGP = true },
		},
		{
			name: "missing med treated as zero",
			a:    func(r *Route) { r.Attrs.HasMED = false },
			b:    func(r *Route) { r.Attrs.MED = 10; r.EBGP = true },
		},
		{
			name: "ebgp beats igp metric",
			a:    func(r *Route) { r.EBGP = true },
			b:    func(r *Route) { r.IGPMetric = 1 },
		},
		{
			name: "igp metric beats cluster-list length",
			a:    func(r *Route) { r.IGPMetric = 10 },
			b:    func(r *Route) { /* a gains a cluster hop below */ },
		},
		{
			name: "cluster-list beats router-id",
			a:    func(r *Route) { r.Attrs.ClusterList = []netip.Addr{addr("10.0.9.9")} },
			b: func(r *Route) {
				r.Attrs.ClusterList = []netip.Addr{addr("10.0.9.9"), addr("10.0.8.8")}
				r.PeerID = addr("10.0.1.1")
			},
		},
		{
			name: "originator-id substitutes for router-id",
			a:    func(r *Route) { r.Attrs.OriginatorID = addr("10.0.1.1"); r.PeerID = addr("10.0.9.9") },
			b:    func(r *Route) { r.PeerID = addr("10.0.2.2"); r.PeerAddr = addr("192.0.2.1") },
		},
		{
			name: "router-id beats peer address",
			a:    func(r *Route) { r.PeerID = addr("10.0.1.1") },
			b:    func(r *Route) { r.PeerID = addr("10.0.2.2"); r.PeerAddr = addr("192.0.2.1") },
		},
		{
			name: "peer address is the final tiebreak",
			a:    func(r *Route) { r.PeerAddr = addr("192.0.2.1") },
			b:    func(r *Route) { r.PeerAddr = addr("192.0.2.9") },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := decisionRoute(tc.a)
			b := decisionRoute(tc.b)
			if got := Compare(a, b); got >= 0 {
				t.Fatalf("Compare(a, b) = %d, want a preferred\n  a: %v\n  b: %v", got, a, b)
			}
			if got := Compare(b, a); got <= 0 {
				t.Fatalf("Compare(b, a) = %d, want asymmetry", got)
			}
			if got := Best([]*Route{b, a}); got != a {
				t.Fatalf("Best chose %v, want %v", got, a)
			}
		})
	}
}

// TestDecisionMEDOnlyWithinSameAS: MED is comparable only between routes
// from the same neighboring AS; across ASes the step is skipped entirely
// and the next step (eBGP-over-iBGP here) decides.
func TestDecisionMEDOnlyWithinSameAS(t *testing.T) {
	worseMED := decisionRoute(func(r *Route) {
		r.Attrs.MED = 500
		r.PeerAS = 300
		r.EBGP = true
	})
	betterMED := decisionRoute(func(r *Route) { r.Attrs.MED = 10 })
	if Compare(worseMED, betterMED) >= 0 {
		t.Fatalf("cross-AS MED was compared: %v should beat %v on eBGP", worseMED, betterMED)
	}

	sameAS := decisionRoute(func(r *Route) { r.Attrs.MED = 500; r.EBGP = true })
	if Compare(betterMED, sameAS) >= 0 {
		t.Fatalf("same-AS MED not compared: %v should beat %v on MED", betterMED, sameAS)
	}
}

// TestDecisionCompareEqualRoutes: indistinguishable routes compare 0 and
// Best resolves the tie to the earliest candidate.
func TestDecisionCompareEqualRoutes(t *testing.T) {
	a, b := decisionRoute(nil), decisionRoute(nil)
	if got := Compare(a, b); got != 0 {
		t.Fatalf("Compare of identical routes = %d, want 0", got)
	}
	if got := Best([]*Route{a, b}); got != a {
		t.Fatal("Best did not resolve a tie to the earliest candidate")
	}
}

// TestReselectValueCompareRegression pins the PR-1 fix: replacing the
// best path with an attribute-identical re-announcement (a *new* Route
// pointer from a periodic refresh) must NOT report a best-path change,
// while a genuinely different announcement from the same peer must.
// Before the fix, reselect compared pointers, so every refresh rippled
// into re-advertisement and FIB recompiles.
func TestReselectValueCompareRegression(t *testing.T) {
	tbl := NewTable()
	orig := decisionRoute(nil)
	if !tbl.Upsert(orig) {
		t.Fatal("first route did not change best")
	}

	refresh := cloneRoute(orig) // same value, different pointer
	if tbl.Upsert(refresh) {
		t.Fatal("attribute-identical re-announcement reported a best-path change")
	}
	if tbl.Best(orig.Prefix) != refresh {
		t.Fatal("refresh was not installed as the current best")
	}

	changed := cloneRoute(refresh)
	changed.Attrs.MED = 999
	if !tbl.Upsert(changed) {
		t.Fatal("genuinely changed announcement did not report a best-path change")
	}

	// Same peer re-announcing the *old* value again: the best flips back,
	// and that is a change even though the value matches a historic best.
	if !tbl.Upsert(cloneRoute(orig)) {
		t.Fatal("reverting announcement did not report a best-path change")
	}
}

// TestReselectLosingRouteRefresh: a refresh of a non-best candidate must
// not report a change either — the best path's value is untouched.
func TestReselectLosingRouteRefresh(t *testing.T) {
	tbl := NewTable()
	best := decisionRoute(func(r *Route) { r.Attrs.LocalPref = 200 })
	loser := decisionRoute(func(r *Route) {
		r.PeerID = addr("10.0.7.7")
		r.PeerAddr = addr("192.0.2.7")
	})
	tbl.Upsert(best)
	if tbl.Upsert(loser) {
		t.Fatal("losing candidate reported a best-path change")
	}
	if tbl.Upsert(cloneRoute(loser)) {
		t.Fatal("refresh of losing candidate reported a best-path change")
	}
	if got := tbl.Best(best.Prefix); got != best {
		t.Fatalf("best = %v, want %v", got, best)
	}
}

// TestWithdrawReselect: withdrawing the best promotes the runner-up and
// reports a change; withdrawing a loser does not.
func TestWithdrawReselect(t *testing.T) {
	tbl := NewTable()
	best := decisionRoute(func(r *Route) { r.Attrs.LocalPref = 200 })
	second := decisionRoute(func(r *Route) {
		r.PeerID = addr("10.0.7.7")
		r.PeerAddr = addr("192.0.2.7")
	})
	tbl.Upsert(best)
	tbl.Upsert(second)

	if tbl.Withdraw(best.Prefix, second.PeerID, second.PeerAddr) {
		t.Fatal("withdrawing the losing candidate reported a change")
	}
	tbl.Upsert(second)
	if !tbl.Withdraw(best.Prefix, best.PeerID, best.PeerAddr) {
		t.Fatal("withdrawing the best did not report a change")
	}
	if got := tbl.Best(best.Prefix); !got.Equal(second) {
		t.Fatalf("runner-up not promoted: best = %v", got)
	}
	if !tbl.Withdraw(best.Prefix, second.PeerID, second.PeerAddr) {
		t.Fatal("withdrawing the last candidate did not report a change")
	}
	if tbl.Len() != 0 {
		t.Fatalf("table still has %d prefixes after full withdrawal", tbl.Len())
	}
}
