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

// TestRRServerPeerReplacement: a second session with the same router ID
// replaces the first, and the first's routes go with it — withdrawn from
// the Loc-RIB and from every other peer.
func TestRRServerPeerReplacement(t *testing.T) {
	srv := wireRR(t)
	first := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })
	sendRoute(t, first, prefix("10.1.0.0/16"))
	<-hk.Updates()
	waitFor(t, "route", func() bool { return srv.NumRoutes() == 1 })

	dialEgress(t, srv, "10.0.1.1")
	waitFor(t, "replacement", func() bool {
		// Updates() is closed when the session ends.
		select {
		case _, ok := <-first.Updates():
			return !ok
		default:
			return false
		}
	})
	select {
	case u := <-hk.Updates():
		if len(u.Withdrawn) != 1 || u.Withdrawn[0] != prefix("10.1.0.0/16") {
			t.Errorf("expected withdraw of 10.1.0.0/16, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replaced session's route not withdrawn")
	}
	// The purge ran with the replacement, before the withdrawal was sent.
	if n := srv.NumRoutes(); n != 0 {
		t.Errorf("routes = %d after the replacement, want 0", n)
	}
	if srv.NumPeers() != 2 {
		t.Errorf("peers = %d", srv.NumPeers())
	}
}

// A replacement's purge reaches the other peers only after whatever the
// replaced session was still reflecting: holding the router ID's fan
// lock stands in for a fan-out still writing, and the withdrawal waits
// for it, so it cannot be overtaken by the route it withdraws.
func TestRRServerPeerReplacementWaitsForFanOut(t *testing.T) {
	srv := wireRR(t)
	first := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })
	sendRoute(t, first, prefix("10.1.0.0/16"))
	<-hk.Updates()

	srv.mu.Lock()
	fm := srv.fanMu[netip.MustParseAddr("10.0.1.1")]
	srv.mu.Unlock()
	fm.Lock()
	dialEgress(t, srv, "10.0.1.1")
	select {
	case u := <-hk.Updates():
		fm.Unlock()
		t.Fatalf("%+v sent while a fan-out for the replaced router was in flight", u)
	case <-time.After(200 * time.Millisecond):
	}
	fm.Unlock()
	select {
	case u := <-hk.Updates():
		if len(u.Withdrawn) != 1 || u.Withdrawn[0] != prefix("10.1.0.0/16") {
			t.Errorf("expected withdraw of 10.1.0.0/16, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replaced session's route not withdrawn")
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
