package core

import (
	"net/netip"
	"slices"
	"testing"

	"vns/internal/bgp"
)

var (
	amsID = addr("10.0.1.1")
	hkID  = addr("10.0.3.1")
)

// testReflector is a reflector with cluster ID reflectorID over testRR's
// GeoRR.
func testReflector(tb testing.TB) *Reflector {
	tb.Helper()
	rr, _ := testRR(tb)
	return NewReflector(rr, reflectorID, nil, nil)
}

func TestReflectorReflectsWithGeoPref(t *testing.T) {
	ref := testReflector(t)
	outs := ref.Ingest(amsID, announce([]netip.Prefix{prefix("10.1.0.0/16")}))
	if len(outs) != 1 || len(outs[0].NLRI) != 1 {
		t.Fatalf("reflected %+v, want one announcement", outs)
	}
	// The reflection carries the geo local-pref and the reflection
	// attributes; the cluster ID is the reflector's.
	u := outs[0]
	if !u.Attrs.HasLocalPref || u.Attrs.LocalPref < 1000 {
		t.Errorf("reflected route lacks geo local-pref: %+v", u.Attrs)
	}
	if u.Attrs.OriginatorID != amsID {
		t.Errorf("originator = %v", u.Attrs.OriginatorID)
	}
	if len(u.Attrs.ClusterList) != 1 || u.Attrs.ClusterList[0] != reflectorID {
		t.Errorf("cluster list = %v", u.Attrs.ClusterList)
	}
	if ref.Len() != 1 {
		t.Fatalf("Len = %d", ref.Len())
	}
	if best := ref.Best(prefix("10.1.0.0/16")); best == nil || best.PeerID != amsID || !best.Attrs.Equal(u.Attrs) {
		t.Fatalf("best = %+v", best)
	}
}

func TestReflectorWithdraw(t *testing.T) {
	ref := testReflector(t)
	p := prefix("10.1.0.0/16")
	ref.Ingest(amsID, announce([]netip.Prefix{p}))
	// A withdrawal that moves no best path is not propagated.
	if outs := ref.Ingest(amsID, bgp.Update{Withdrawn: []netip.Prefix{prefix("10.3.0.0/16")}}); len(outs) != 0 {
		t.Errorf("withdrawal of an unknown route reflected: %+v", outs)
	}
	outs := ref.Ingest(amsID, bgp.Update{Withdrawn: []netip.Prefix{p}})
	if len(outs) != 1 || !slices.Equal(outs[0].Withdrawn, []netip.Prefix{p}) || len(outs[0].NLRI) != 0 {
		t.Errorf("expected withdraw of %v, got %+v", p, outs)
	}
	if ref.Len() != 0 {
		t.Errorf("Len = %d after the withdrawal", ref.Len())
	}
}

func TestReflectorMultiPrefixSplit(t *testing.T) {
	ref := testReflector(t)
	// One update carrying both the Amsterdam and Hong Kong prefixes: the
	// reflector splits them so each geolocates separately.
	outs := ref.Ingest(amsID, announce([]netip.Prefix{prefix("10.1.0.0/16"), prefix("10.3.0.0/16")}))
	lps := map[string]uint32{}
	for _, u := range outs {
		if len(u.NLRI) != 1 {
			t.Fatalf("expected split NLRI, got %d prefixes", len(u.NLRI))
		}
		lps[u.NLRI[0].String()] = u.Attrs.LocalPref
	}
	if len(lps) != 2 {
		t.Fatalf("reflected %+v, want two announcements", outs)
	}
	// From the AMS egress, the Amsterdam prefix must score higher than
	// the Hong Kong prefix.
	if lps["10.1.0.0/16"] <= lps["10.3.0.0/16"] {
		t.Errorf("local prefs: %v", lps)
	}
}

func TestReflectorClusterLoopDrop(t *testing.T) {
	ref := testReflector(t)
	// A route already carrying the reflector's cluster ID is dropped,
	// not reflected (RFC 4456 loop prevention).
	u := announce([]netip.Prefix{prefix("10.1.0.0/16")})
	u.Attrs.ClusterList = []netip.Addr{reflectorID}
	if outs := ref.Ingest(amsID, u); len(outs) != 0 {
		t.Fatalf("looped route reflected: %+v", outs)
	}
	if ref.Len() != 0 {
		t.Error("looped route installed")
	}
}

// TestReflectorPurge: purging a peer withdraws its routes, packed in
// address order, and leaves every other peer's; purging it again, or a
// peer that announced nothing, sends nothing.
func TestReflectorPurge(t *testing.T) {
	ref := testReflector(t)
	gone := []netip.Prefix{prefix("10.1.0.0/16"), prefix("10.2.0.0/16")}
	ref.Ingest(amsID, announce([]netip.Prefix{gone[1], gone[0]}))
	ref.Ingest(hkID, announce([]netip.Prefix{prefix("10.3.0.0/16")}))

	outs := ref.Purge(amsID)
	if len(outs) != 1 || !slices.Equal(outs[0].Withdrawn, gone) || len(outs[0].NLRI) != 0 {
		t.Fatalf("purge = %+v, want one withdrawal of %v", outs, gone)
	}
	for _, p := range gone {
		if best := ref.Best(p); best != nil {
			t.Errorf("%v still has best %+v", p, best)
		}
	}
	if best := ref.Best(prefix("10.3.0.0/16")); best == nil || best.PeerID != hkID {
		t.Errorf("HK's route = %+v", best)
	}
	if outs := ref.Purge(amsID); outs != nil {
		t.Errorf("second purge = %+v", outs)
	}
	if outs := ref.Purge(addr("10.0.2.1")); outs != nil {
		t.Errorf("purge of a silent peer = %+v", outs)
	}
}

// TestReflectorHasCover: only a strictly less-specific route in the
// Loc-RIB covers a prefix.
func TestReflectorHasCover(t *testing.T) {
	ref := testReflector(t)
	ref.Ingest(amsID, announce([]netip.Prefix{prefix("10.1.0.0/16")}))
	for p, want := range map[string]bool{
		"10.1.200.0/24": true,  // under the /16
		"10.1.0.0/16":   false, // the route itself
		"10.0.0.0/8":    false, // a less-specific of it
		"10.2.1.0/24":   false, // elsewhere
	} {
		if got := ref.HasCover(prefix(p)); got != want {
			t.Errorf("HasCover(%s) = %v, want %v", p, got, want)
		}
	}
}

// BenchmarkReflectorIngest: one single-prefix UPDATE through Ingest, in
// the world BenchmarkRRServerReflect uses, with no sessions: the cost of
// the reflection rule and the Loc-RIB apply without the wire.
func BenchmarkReflectorIngest(b *testing.B) {
	ref := testReflector(b)
	u := announce(slash24s(1))
	b.ReportAllocs()
	for b.Loop() {
		ref.Ingest(amsID, u)
	}
}
