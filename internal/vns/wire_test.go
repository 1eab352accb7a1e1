package vns

import (
	"net/netip"
	"testing"
	"time"

	"vns/internal/core"
	"vns/internal/geo"
	"vns/internal/geoip"
	"vns/internal/topo"
)

// wireDeployment starts a wire deployment over a seed-5 world and
// connects its egress routers, which announce up to maxPrefixes
// prefixes; it returns the deployment, the peering and how many
// announcements the routers wrote.
func wireDeployment(t *testing.T, maxPrefixes int) (*WireDeployment, *Peering, int) {
	t.Helper()
	n := NewNetwork()
	tp := topo.Generate(topo.GenConfig{Seed: 5, NumAS: 300})
	pr := Connect(n, tp, 5)
	dp := NewDataPlane(pr, 5)

	db := geoip.New()
	for i := range tp.Prefixes {
		pi := &tp.Prefixes[i]
		if err := db.Insert(geoip.Record{Prefix: pi.Prefix, Pos: pi.Loc, Country: pi.Country, Region: pi.Region}); err != nil {
			t.Fatal(err)
		}
	}
	rr := core.New(core.Config{DB: db})
	for _, p := range n.PoPs {
		for _, r := range p.Routers {
			rr.AddEgress(core.Egress{ID: r, Pos: p.Place.Pos, PoP: p.Code})
		}
	}

	w, err := StartWireDeployment("127.0.0.1:0", dp, rr, netip.MustParseAddr("10.0.0.100"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	sent, err := w.ConnectEgresses(maxPrefixes)
	if err != nil {
		t.Fatal(err)
	}
	return w, pr, sent
}

// awaitIngest blocks until the reflector has ingested the sent
// announcements the egress routers wrote. ConnectEgresses returns once
// the bytes are on the sockets; the reflector's 22 session goroutines
// are still decoding them. The barrier is the GeoRR's processed count:
// Reflector.Ingest runs each announced prefix through Assign exactly
// once, inside the RRServer critical section that applies the UPDATE
// to the Loc-RIB and reflects it, so once the count reaches the number
// of announcements every later RRServer read (they take the same lock)
// sees the full table. It holds while nothing else calls Assign — no
// Forwarding is attached to this reflector.
func awaitIngest(t *testing.T, w *WireDeployment, sent int) {
	t.Helper()
	want := uint64(sent)
	rr := w.RR.GeoRR()
	deadline := time.Now().Add(30 * time.Second)
	for got, _ := rr.Stats(); got < want; got, _ = rr.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("reflector ingested %d of %d announcements", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWireDeploymentAllRoutersConnect(t *testing.T) {
	w, pr, _ := wireDeployment(t, 50)
	routers := 0
	for _, p := range pr.Net.PoPs {
		routers += len(p.Routers)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && w.RR.NumPeers() < routers {
		time.Sleep(20 * time.Millisecond)
	}
	if got := w.RR.NumPeers(); got != routers {
		t.Fatalf("peers = %d, want %d", got, routers)
	}
}

func TestWireDeploymentRoutesConvergeToGeo(t *testing.T) {
	w, pr, sent := wireDeployment(t, 60)
	awaitIngest(t, w, sent)
	if got := w.RR.NumRoutes(); got != 60 {
		t.Fatalf("routes = %d, want 60", got)
	}

	// For a sample of prefixes, the wire-level best must exit at (or
	// geographically very near) the PoP the in-process geo selection
	// picks — the two code paths implement the same mechanism.
	checked := 0
	for i := 0; i < 60; i++ {
		pi := &pr.Topo.Prefixes[i]
		best := w.RR.Best(pi.Prefix)
		if best == nil {
			continue
		}
		pop, ok := pr.Net.RouterPoP(best.PeerID)
		if !ok {
			t.Fatalf("best route from unknown router %v", best.PeerID)
		}
		// The wire winner's distance to the prefix must be within a
		// whisker of the best candidate PoP's distance.
		cands := pr.Candidates(pi.Origin)
		bestDist := 1e18
		for _, c := range cands {
			if d := geo.DistanceKm(c.Session.PoP.Place.Pos, pi.Loc); d < bestDist {
				bestDist = d
			}
		}
		got := geo.DistanceKm(pop.Place.Pos, pi.Loc)
		if got > bestDist+50 {
			t.Fatalf("prefix %v: wire egress %s at %.0f km, best possible %.0f km",
				pi.Prefix, pop.Code, got, bestDist)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d prefixes checked", checked)
	}
}

func TestWireDeploymentAnnounceCounts(t *testing.T) {
	_, _, sent := wireDeployment(t, 40)
	// 40 prefixes x 11 PoPs' best-external announcements.
	if sent != 40*11 {
		t.Errorf("total announcements = %d, want %d", sent, 440)
	}
}
