package vns

import (
	"fmt"
	"net/netip"
	"sync"

	"vns/internal/bgp"
	"vns/internal/core"
)

// WireDeployment runs the VNS control plane over real BGP/TCP: the geo
// route reflector listening for sessions plus one in-process speaker per
// egress router, each announcing its best-external routes.
// experiments.Deploy starts it for cmd/vnsd; this package's tests drive
// it directly.
type WireDeployment struct {
	RR  *core.RRServer
	dp  *DataPlane
	net *Network

	mu       sync.Mutex
	sessions []*bgp.Session
	counts   map[netip.Addr]int
}

// StartWireDeployment launches the reflector on listenAddr.
func StartWireDeployment(listenAddr string, dp *DataPlane, rr *core.GeoRR, rrID netip.Addr) (*WireDeployment, error) {
	srv, err := core.NewRRServer(listenAddr, rr, ASN, rrID)
	if err != nil {
		return nil, err
	}
	return &WireDeployment{
		RR:     srv,
		dp:     dp,
		net:    dp.Peering.Net,
		counts: make(map[netip.Addr]int),
	}, nil
}

// Close tears down every session and the reflector.
func (w *WireDeployment) Close() error {
	w.mu.Lock()
	sessions := w.sessions
	w.sessions = nil
	w.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
	return w.RR.Close()
}

// AnnounceCounts returns, per egress router, how many routes it
// announced.
func (w *WireDeployment) AnnounceCounts() map[netip.Addr]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[netip.Addr]int, len(w.counts))
	//vnslint:maprange map-to-map snapshot copy; destination is a map, so order cannot escape
	for k, v := range w.counts {
		out[k] = v
	}
	return out
}

// ConnectEgresses dials one BGP session per egress router and announces
// each router's best-external route for up to maxPrefixes prefixes
// (0 = all). It blocks until every announcement has been written.
func (w *WireDeployment) ConnectEgresses(maxPrefixes int) error {
	updatesByRouter := w.buildAnnouncements(maxPrefixes)

	for _, pop := range w.net.PoPs {
		for _, router := range pop.Routers {
			sess, err := core.DialRR(w.RR.Addr(), ASN, router)
			if err != nil {
				return fmt.Errorf("vns: egress %s/%v: %w", pop.Code, router, err)
			}
			w.mu.Lock()
			w.sessions = append(w.sessions, sess)
			w.mu.Unlock()
			// Drain reflected routes for the session's lifetime.
			go func() {
				for range sess.Updates() {
				}
			}()
			for _, u := range updatesByRouter[router] {
				if err := sess.SendUpdate(u); err != nil {
					return fmt.Errorf("vns: egress %s/%v send: %w", pop.Code, router, err)
				}
			}
			w.mu.Lock()
			w.counts[router] = len(updatesByRouter[router])
			w.mu.Unlock()
		}
	}
	return nil
}

// buildAnnouncements computes, per egress router, the best-external
// routes it would advertise into iBGP: for every prefix, each PoP's
// locally best session contributes one announcement from its router.
func (w *WireDeployment) buildAnnouncements(maxPrefixes int) map[netip.Addr][]bgp.Update {
	out := make(map[netip.Addr][]bgp.Update)
	count := 0
	for i := range w.dp.Peering.Topo.Prefixes {
		if maxPrefixes > 0 && count >= maxPrefixes {
			break
		}
		pi := &w.dp.Peering.Topo.Prefixes[i]
		for _, pop := range w.net.PoPs {
			c, ok := w.dp.LocalEgressSession(pop, pi.Origin)
			if !ok {
				continue
			}
			out[c.Session.Router] = append(out[c.Session.Router], bgp.Update{
				Attrs: bgp.Attrs{
					ASPath:  []bgp.ASPathSegment{{ASNs: wirePath(c, pi.Origin)}},
					NextHop: c.Session.Router,
				},
				NLRI: []netip.Prefix{pi.Prefix},
			})
		}
		count++
	}
	return out
}

// wirePath returns the AS path the neighbor's announcement carries:
// the neighbor itself followed by its real valley-free path to the
// origin AS. If path reconstruction fails (it should not for an
// exportable route), a synthetic filler of the right length keeps the
// announcement well-formed.
func wirePath(c Candidate, origin uint16) []uint16 {
	nb := c.Session.Neighbor
	if rest, ok := nb.View.PathTo(origin); ok {
		return append([]uint16{nb.ASN}, rest...)
	}
	path := make([]uint16, 0, c.PathLen)
	path = append(path, nb.ASN)
	for len(path) < c.PathLen {
		path = append(path, uint16(64000+len(path)))
	}
	return path
}
