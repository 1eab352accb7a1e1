// Georouting: watch the geo route reflector rewrite LOCAL_PREF over
// live BGP sessions. Three egress routers (Amsterdam, Ashburn, Hong
// Kong) dial the reflector over TCP and announce the same prefix; the
// reflector geolocates it, scores each announcement by great-circle
// distance, and reflects the modified routes. Then a management
// override forces the exit elsewhere.
//
//	go run ./examples/georouting
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/geo"
	"vns/internal/geoip"
)

func main() {
	// A one-prefix GeoIP database: 10.42.0.0/16 is in Amsterdam.
	db := geoip.New()
	target := netip.MustParsePrefix("10.42.0.0/16")
	if err := db.Insert(geoip.Record{
		Prefix: target, Pos: geo.MustLookup("Amsterdam").Pos, Country: "NL", Region: geo.RegionEU,
	}); err != nil {
		log.Fatal(err)
	}

	rr := core.New(core.Config{DB: db})
	egresses := []struct {
		id   string
		city string
	}{
		{"10.0.9.1", "Amsterdam"},
		{"10.0.3.1", "Ashburn"},
		{"10.0.6.1", "HongKong"},
	}
	for _, e := range egresses {
		rr.AddEgress(core.Egress{
			ID:  netip.MustParseAddr(e.id),
			Pos: geo.MustLookup(e.city).Pos,
			PoP: e.city,
		})
	}

	// The router ID is also the reflector's cluster ID: reflected routes
	// carry it in their CLUSTER_LIST.
	srv, err := core.NewRRServer("127.0.0.1:0", rr, 65000, netip.MustParseAddr("10.0.0.100"))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("geo route reflector listening on %s\n\n", srv.Addr())

	// Dial one session per egress router; a monitor session observes
	// what gets reflected.
	monitor, err := core.DialRR(srv.Addr(), 65000, netip.MustParseAddr("10.0.99.1"))
	if err != nil {
		log.Fatal(err)
	}
	defer monitor.Close()

	sessions := map[string]*bgp.Session{}
	for _, e := range egresses {
		sess, err := core.DialRR(srv.Addr(), 65000, netip.MustParseAddr(e.id))
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		sessions[e.city] = sess
	}

	// Each egress announces the prefix, as if learned from a different
	// external neighbor.
	for i, e := range egresses {
		err := sessions[e.city].SendUpdate(bgp.Update{
			Attrs: bgp.Attrs{
				ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{uint16(100 + i), 200}}},
				NextHop: netip.MustParseAddr(e.id),
			},
			NLRI: []netip.Prefix{target},
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("reflected routes as seen by the monitor router:")
	seen := 0
	timeout := time.After(5 * time.Second)
	for seen < len(egresses) {
		select {
		case u := <-monitor.Updates():
			if len(u.NLRI) == 0 {
				continue
			}
			fmt.Printf("  %v via %-12v LOCAL_PREF=%d\n", u.NLRI[0], u.Attrs.OriginatorID, u.Attrs.LocalPref)
			seen++
		case <-timeout:
			log.Fatal("timed out waiting for reflected routes")
		}
	}

	best := srv.Best(target)
	pop := popOf(egresses, best.PeerID)
	fmt.Printf("\nreflector's best path: via %s (lp=%d) — the geographically closest egress\n\n",
		pop, best.LocalPref())

	// Management override: the operator forces the exit to Hong Kong
	// (e.g. because data-plane measurements disagree with geography).
	fmt.Println("operator: force 10.42.0.0/16 out of Hong Kong")
	if err := rr.ForceExit(target, netip.MustParseAddr("10.0.6.1")); err != nil {
		log.Fatal(err)
	}
	// Re-announce so the override takes effect on the next update.
	if err := sessions["HongKong"].SendUpdate(bgp.Update{
		Attrs: bgp.Attrs{
			ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{102, 200}}},
			NextHop: netip.MustParseAddr("10.0.6.1"),
		},
		NLRI: []netip.Prefix{target},
	}); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b := srv.Best(target); b != nil && b.PeerID == netip.MustParseAddr("10.0.6.1") {
			fmt.Printf("reflector's best path now: via HongKong (lp=%d) — override wins\n", b.LocalPref())
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatal("override did not take effect")
}

func popOf(egresses []struct{ id, city string }, id netip.Addr) string {
	for _, e := range egresses {
		if e.id == id.String() {
			return e.city
		}
	}
	return id.String()
}
