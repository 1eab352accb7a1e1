package experiments

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/vns"
)

// listened deploys vnsd's default world at the benchmark's size, with
// vnsd's debounce, and starts the wire reflector.
func listened(t *testing.T) *Deployment {
	t.Helper()
	d := NewEnv(Config{Seed: 1, NumAS: 120}).Deploy(vns.ForwardingConfig{Debounce: 50 * time.Millisecond})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestDeployReflectsWithClusterID: a reflected UPDATE carries the
// reflector's router ID as its CLUSTER_LIST and the announcing router as
// its ORIGINATOR_ID.
func TestDeployReflectsWithClusterID(t *testing.T) {
	d := listened(t)
	from, to := d.Net.PoP("LON").Routers[0], d.Net.PoP("SIN").Routers[0]
	var sessions []*bgp.Session
	for _, r := range []netip.Addr{from, to} {
		sess, err := core.DialRR(d.Wire.RR.Addr(), vns.ASN, r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		sessions = append(sessions, sess)
	}
	// The reflector registers a session on its own goroutine after the
	// handshake, and reflects only to registered sessions.
	deadline := time.Now().Add(5 * time.Second)
	for d.Wire.RR.NumPeers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("reflector registered %d of 2 sessions", d.Wire.RR.NumPeers())
		}
		time.Sleep(time.Millisecond)
	}

	p := d.Topo.Prefixes[0].Prefix
	err := sessions[0].SendUpdate(bgp.Update{
		Attrs: bgp.Attrs{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{64999}}}, NextHop: from},
		NLRI:  []netip.Prefix{p},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-sessions[1].Updates():
		if !slices.Equal(u.NLRI, []netip.Prefix{p}) {
			t.Fatalf("reflected NLRI = %v, want [%v]", u.NLRI, p)
		}
		if want := []netip.Addr{netip.MustParseAddr("10.0.0.100")}; !slices.Equal(u.Attrs.ClusterList, want) {
			t.Errorf("CLUSTER_LIST = %v, want %v", u.Attrs.ClusterList, want)
		}
		if u.Attrs.OriginatorID != from {
			t.Errorf("ORIGINATOR_ID = %v, want %v", u.Attrs.OriginatorID, from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reflected UPDATE")
	}
}

// TestDeployMgmtDrainRepublishesFIB: a management egress-down of the
// router a LON prefix exits through moves LON's FIB to the control
// plane's new answer before the command returns, and egress-up moves it
// back.
func TestDeployMgmtDrainRepublishesFIB(t *testing.T) {
	d := listened(t)
	execute := mgmtPoster(t, d)

	lon := d.Net.PoP("LON")
	eng := d.Fwd.EngineByID(lon.ID)
	p := d.Topo.Prefixes[0].Prefix
	before, ok := eng.Lookup(p.Addr())
	if !ok {
		t.Fatalf("LON has no route to %v", p)
	}

	execute("egress-down " + before.Router.String())
	want, ok := d.Fwd.Resolve(lon, p)
	if !ok || want.Router == before.Router {
		t.Fatalf("control plane after draining %v: %+v, %v; want another router", before.Router, want, ok)
	}
	if got, _ := eng.Lookup(p.Addr()); got != want {
		t.Errorf("LON FIB after egress-down %v: %+v, control plane %+v", before.Router, got, want)
	}

	execute("egress-up " + before.Router.String())
	if got, _ := eng.Lookup(p.Addr()); got != before {
		t.Errorf("LON FIB after egress-up %v: %+v, want %+v", before.Router, got, before)
	}
}

// mgmtPoster serves d's management interface over HTTP and returns a
// function that POSTs one command to it and fails the test unless the
// reply is OK.
func mgmtPoster(t *testing.T, d *Deployment) func(cmd string) {
	srv := httptest.NewServer(d.Mgmt)
	t.Cleanup(srv.Close)
	return func(cmd string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/mgmt", "text/plain", strings.NewReader(cmd))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading the reply: %v", cmd, err)
		}
		if resp.StatusCode != http.StatusOK || string(reply) != "OK\n" {
			t.Fatalf("%s = %d %q, want 200 OK", cmd, resp.StatusCode, reply)
		}
	}
}

// TestDeployMgmtOverridesOpenEvents: each management override the live
// daemon hands to the GeoRR is one "mgmt" convergence event.
func TestDeployMgmtOverridesOpenEvents(t *testing.T) {
	d := listened(t)
	execute := mgmtPoster(t, d)
	p := d.Topo.Prefixes[0].Prefix
	execute("force " + p.String() + " " + d.Net.PoP("SIN").Routers[0].String())
	execute("unforce " + p.String())
	if want := `convergence_events_total{kind="mgmt"} 2` + "\n"; !strings.Contains(d.Telemetry.Render(), want) {
		t.Errorf("metrics lack %q after force and unforce", want)
	}
}

// TestDrainConcurrentWithApply: drains from the management goroutine and
// liveness transitions from the simulation goroutine reconverge one at
// a time, so the FIBs end congruent with the control plane.
func TestDrainConcurrentWithApply(t *testing.T) {
	d := NewEnv(Config{Seed: 3, NumAS: 60}).Deploy(vns.ForwardingConfig{})
	sin, syd := d.Net.PoP("SIN"), d.Net.PoP("SYD")
	drained := d.Net.PoP("LON").Routers[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			d.Controller.Drain(drained, i%2 == 0)
		}
	}()
	for i := 0; i < 4; i++ {
		d.Controller.Apply(sin, syd, i%2 != 0)
	}
	<-done
	for _, p := range d.Net.PoPs {
		if match, total := d.Fwd.Congruence(p); match != total {
			t.Errorf("%s FIB agrees with the control plane on %d of %d prefixes", p.Code, match, total)
		}
	}
}
