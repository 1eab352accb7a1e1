package core

import (
	"net/netip"
	"testing"
	"time"

	"vns/internal/bgp"
)

func wireRR(t *testing.T) *RRServer {
	t.Helper()
	rr, _ := testRR(t)
	srv, err := NewRRServer("127.0.0.1:0", rr, 65000, addr("10.0.0.100"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialEgress(t *testing.T, srv *RRServer, id string) *bgp.Session {
	t.Helper()
	sess, err := DialRR(srv.Addr(), 65000, addr(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func sendRoute(t *testing.T, sess *bgp.Session, prefixes ...netip.Prefix) {
	t.Helper()
	err := sess.SendUpdate(bgp.Update{
		Attrs: bgp.Attrs{
			ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}},
			NextHop: addr("192.0.2.1"),
		},
		NLRI: prefixes,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestRRServerReflectsWithGeoPref(t *testing.T) {
	srv := wireRR(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })

	sendRoute(t, ams, prefix("10.1.0.0/16"))

	// HK must receive the reflected route with geo local-pref and
	// reflection attributes.
	select {
	case u := <-hk.Updates():
		if !u.Attrs.HasLocalPref || u.Attrs.LocalPref < 1000 {
			t.Errorf("reflected route lacks geo local-pref: %+v", u.Attrs)
		}
		if u.Attrs.OriginatorID != addr("10.0.1.1") {
			t.Errorf("originator = %v", u.Attrs.OriginatorID)
		}
		// The cluster ID is the reflector's router ID.
		if len(u.Attrs.ClusterList) != 1 || u.Attrs.ClusterList[0] != addr("10.0.0.100") {
			t.Errorf("cluster list = %v", u.Attrs.ClusterList)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reflected update")
	}

	waitFor(t, "loc-rib", func() bool { return srv.NumRoutes() == 1 })
	best := srv.Best(prefix("10.1.0.0/16"))
	if best == nil || best.PeerID != addr("10.0.1.1") {
		t.Fatalf("best = %+v", best)
	}

	// AMS must NOT get its own route back.
	select {
	case u := <-ams.Updates():
		t.Fatalf("route reflected back to source: %+v", u)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestRRServerWithdraw(t *testing.T) {
	srv := wireRR(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })

	sendRoute(t, ams, prefix("10.1.0.0/16"))
	<-hk.Updates() // announcement
	waitFor(t, "route installed", func() bool { return srv.NumRoutes() == 1 })

	if err := ams.SendUpdate(bgp.Update{Withdrawn: []netip.Prefix{prefix("10.1.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-hk.Updates():
		if len(u.Withdrawn) != 1 {
			t.Errorf("expected withdraw, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withdraw not propagated")
	}
	waitFor(t, "route removed", func() bool { return srv.NumRoutes() == 0 })
}

func TestRRServerMultiPrefixSplit(t *testing.T) {
	srv := wireRR(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })

	// One update carrying both the Amsterdam and Hong Kong prefixes:
	// the reflector must split them so each geolocates separately.
	sendRoute(t, ams, prefix("10.1.0.0/16"), prefix("10.3.0.0/16"))

	lps := map[string]uint32{}
	for i := 0; i < 2; i++ {
		select {
		case u := <-hk.Updates():
			if len(u.NLRI) != 1 {
				t.Fatalf("expected split NLRI, got %d prefixes", len(u.NLRI))
			}
			lps[u.NLRI[0].String()] = u.Attrs.LocalPref
		case <-time.After(5 * time.Second):
			t.Fatal("missing reflected update")
		}
	}
	// From the AMS egress, the Amsterdam prefix must score higher than
	// the Hong Kong prefix.
	if lps["10.1.0.0/16"] <= lps["10.3.0.0/16"] {
		t.Errorf("local prefs: %v", lps)
	}
}

func TestRRServerClusterLoopDrop(t *testing.T) {
	srv := wireRR(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })

	// A route already carrying the reflector's cluster ID must be
	// dropped, not reflected (RFC 4456 loop prevention).
	err := ams.SendUpdate(bgp.Update{
		Attrs: bgp.Attrs{
			ASPath:      []bgp.ASPathSegment{{ASNs: []uint16{100}}},
			NextHop:     addr("192.0.2.1"),
			ClusterList: []netip.Addr{addr("10.0.0.100")},
		},
		NLRI: []netip.Prefix{prefix("10.1.0.0/16")},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-hk.Updates():
		t.Fatalf("looped route reflected: %+v", u)
	case <-time.After(400 * time.Millisecond):
	}
	if srv.NumRoutes() != 0 {
		t.Error("looped route installed")
	}
}

func TestRRServerPeerReplacement(t *testing.T) {
	srv := wireRR(t)
	first := dialEgress(t, srv, "10.0.1.1")
	waitFor(t, "first peer", func() bool { return srv.NumPeers() == 1 })
	// A second session with the same router ID replaces the first.
	second := dialEgress(t, srv, "10.0.1.1")
	waitFor(t, "replacement", func() bool {
		// Updates() is closed when the session ends.
		select {
		case _, ok := <-first.Updates():
			return !ok
		default:
			return false
		}
	})
	_ = second
	if srv.NumPeers() != 1 {
		t.Errorf("peers = %d", srv.NumPeers())
	}
}

func TestRRServerPurgesDeadPeerRoutes(t *testing.T) {
	srv := wireRR(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })

	sendRoute(t, ams, prefix("10.1.0.0/16"))
	<-hk.Updates()
	waitFor(t, "route", func() bool { return srv.NumRoutes() == 1 })

	// AMS crashes: its route must be withdrawn from the Loc-RIB and the
	// withdrawal propagated to HK.
	ams.Close()
	waitFor(t, "purge", func() bool { return srv.NumRoutes() == 0 })
	select {
	case u := <-hk.Updates():
		if len(u.Withdrawn) != 1 || u.Withdrawn[0] != prefix("10.1.0.0/16") {
			t.Errorf("expected withdraw of 10.1.0.0/16, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withdraw not propagated after peer death")
	}
	if srv.NumPeers() != 1 {
		t.Errorf("peers = %d", srv.NumPeers())
	}
}
