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
// experiments.Deployment.Listen starts it for cmd/vnsd; this package's
// tests drive it directly.
type WireDeployment struct {
	RR *core.RRServer
	dp *DataPlane

	mu       sync.Mutex
	sessions []*bgp.Session
}

// StartWireDeployment launches the reflector on listenAddr.
func StartWireDeployment(listenAddr string, dp *DataPlane, rr *core.GeoRR, rrID netip.Addr) (*WireDeployment, error) {
	srv, err := core.NewRRServer(listenAddr, rr, ASN, rrID)
	if err != nil {
		return nil, err
	}
	return &WireDeployment{RR: srv, dp: dp}, nil
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

// ConnectEgresses dials one BGP session per egress router and announces
// each router's best-external route for up to maxPrefixes prefixes
// (0 = all). It blocks until every announcement has been written and
// returns how many it wrote, one UPDATE each.
func (w *WireDeployment) ConnectEgresses(maxPrefixes int) (int, error) {
	updatesByRouter := EgressAnnouncements(w.dp, maxPrefixes)
	sent := 0
	for _, pop := range w.dp.Peering.Net.PoPs {
		for _, router := range pop.Routers {
			sess, err := core.DialRR(w.RR.Addr(), ASN, router)
			if err != nil {
				return sent, fmt.Errorf("vns: egress %s/%v: %w", pop.Code, router, err)
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
					return sent, fmt.Errorf("vns: egress %s/%v send: %w", pop.Code, router, err)
				}
				sent++
			}
		}
	}
	return sent, nil
}

// EgressAnnouncements computes, per egress router, the best-external
// routes it would advertise into iBGP for up to maxPrefixes prefixes
// (0 = all): for every prefix, each PoP's locally best session
// contributes one single-prefix UPDATE from its router. The wire
// deployment sends them over TCP; the scenario harness ingests them
// into a core.Reflector directly.
func EgressAnnouncements(dp *DataPlane, maxPrefixes int) map[netip.Addr][]bgp.Update {
	out := make(map[netip.Addr][]bgp.Update)
	for i := range dp.Peering.Topo.Prefixes {
		if maxPrefixes > 0 && i >= maxPrefixes {
			break
		}
		pi := &dp.Peering.Topo.Prefixes[i]
		for _, pop := range dp.Peering.Net.PoPs {
			c, ok := dp.LocalEgressSession(pop, pi.Origin)
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
