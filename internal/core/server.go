package core

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"vns/internal/bgp"
	"vns/internal/detsort"
	"vns/internal/rib"
	"vns/internal/telemetry"
)

// RRServer runs the GeoRR as a real BGP speaker: the TCP shell around a
// Reflector. It accepts iBGP sessions from egress routers and writes
// what the Reflector returns to every other peer. Each control-plane
// step — a drained run of received UPDATEs, a session's end, a
// replacement — is one critical section under s.mu, from the peer-map
// check through Ingest or Purge to the last write, so every peer
// receives reflections in the order the Loc-RIB applied them. A run is
// the UPDATE that woke the session's goroutine and every UPDATE already
// queued behind it: each is still ingested on its own, and the run is
// written to each peer once (handleUpdate).
type RRServer struct {
	ref *Reflector
	cfg bgp.SessionConfig
	ln  net.Listener

	mu    sync.Mutex
	peers map[netip.Addr]*bgp.Session
	// pending holds each accepted connection until its handshake ends,
	// so Close can close one whose peer never sends an OPEN.
	pending map[net.Conn]struct{}
	closed  bool // Close has begun: a connection that arrives later is closed at once
	wg      sync.WaitGroup

	closeOnce sync.Once
}

// NewRRServer starts the reflector listening on addr (e.g.
// "127.0.0.1:0"). localAS and routerID identify the reflector in its
// OPEN messages; the router ID is also its cluster ID.
func NewRRServer(addr string, rr *GeoRR, localAS uint16, routerID netip.Addr) (*RRServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newRRServer(ln, rr, localAS, routerID), nil
}

// newRRServer starts the reflector accepting sessions on ln.
func newRRServer(ln net.Listener, rr *GeoRR, localAS uint16, routerID netip.Addr) *RRServer {
	s := &RRServer{
		ref:     NewReflector(rr, routerID, nil, nil),
		cfg:     bgp.SessionConfig{LocalAS: localAS, LocalID: routerID},
		ln:      ln,
		peers:   make(map[netip.Addr]*bgp.Session),
		pending: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *RRServer) Addr() string { return s.ln.Addr().String() }

// SetTelemetry attaches a telemetry registry to the server: future BGP
// sessions count their FSM transitions and message flows into it, and
// the Loc-RIB reports decision churn. Call it right after NewRRServer,
// before peers connect (vnsd does), so every session is instrumented.
func (s *RRServer) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Metrics = bgp.NewMetrics(reg)
	s.ref.table.SetMetrics(rib.NewMetrics(reg))
}

// SetConvergence attaches the deployment's shared convergence span
// layer (the forwarding plane constructs it; see vns.Forwarding): every
// subsequently received UPDATE becomes one "update" convergence event
// whose stage latencies — op ingest, geo assignment, sharded best-path
// selection, forwarding-plane invalidation — are recorded per batch.
func (s *RRServer) SetConvergence(c *telemetry.Convergence) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ref.conv = c
}

// Close shuts down the server and all sessions.
func (s *RRServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.ln.Close()
		s.mu.Lock()
		s.closed = true
		//vnslint:maprange closing every session; each Close is independent, order cannot escape
		for _, sess := range s.peers {
			sess.Close()
		}
		//vnslint:maprange closing every handshake; each Close is independent, order cannot escape
		for conn := range s.pending {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

// Best returns the reflector's current best route for a prefix.
func (s *RRServer) Best(prefix netip.Prefix) *rib.Route {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref.Best(prefix)
}

// NumRoutes returns the number of prefixes in the Loc-RIB.
func (s *RRServer) NumRoutes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref.Len()
}

// NumPeers returns the number of established sessions.
func (s *RRServer) NumPeers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// GeoRR exposes the underlying reflector for management operations.
func (s *RRServer) GeoRR() *GeoRR { return s.ref.rr }

func (s *RRServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed { // Close has swept the handshakes already
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.pending[conn] = struct{}{}
		cfg := s.cfg
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, cfg)
		}()
	}
}

func (s *RRServer) serveConn(conn net.Conn, cfg bgp.SessionConfig) {
	sess, err := bgp.Handshake(conn, cfg)
	s.mu.Lock()
	delete(s.pending, conn)
	if err != nil {
		s.mu.Unlock()
		return
	}
	peerID := sess.PeerID()
	if s.closed { // Close has swept the peer map already
		s.mu.Unlock()
		sess.Close()
		return
	}
	// A second session with the same router ID replaces the first, in one
	// critical section: the first is closed, its routes purged and the
	// withdrawals sent, so its own cleanup below no longer owns the ID.
	if old, dup := s.peers[peerID]; dup {
		old.Close()
		s.fanOut(peerID, s.ref.Purge(peerID))
	}
	s.peers[peerID] = sess
	s.mu.Unlock()
	defer func() {
		// A dead peer's routes are withdrawn and the withdrawals
		// propagated, so a crashed egress router leaves no stale
		// geo-routed paths behind.
		sess.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.peers[peerID] == sess {
			delete(s.peers, peerID)
			s.fanOut(peerID, s.ref.Purge(peerID))
		}
	}()
	for u := range sess.Updates() {
		s.handleUpdate(sess, peerID, u)
	}
}

// handleUpdate ingests u, one UPDATE from the session sess of router
// from, and then every UPDATE already queued on sess, at most the
// queue's capacity, without waiting for more. Each is its own Ingest
// (its own batch, convergence event and forwarding pass); their
// reflections are concatenated in order and sent in one fan-out, so a
// run of queued UPDATEs costs one write per peer, and a lone UPDATE is
// a run of one. Every announcement in the run is published to the
// forwarding plane before any of it is reflected. UPDATEs still
// arriving on a replaced session are dropped: its router's routes were
// purged, and the router ID belongs to the new session now.
func (s *RRServer) handleUpdate(sess *bgp.Session, from netip.Addr, u bgp.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peers[from] != sess {
		return
	}
	outs := s.ref.Ingest(from, u)
	queue := sess.Updates()
drain:
	for range cap(queue) {
		select {
		case u, ok := <-queue:
			if !ok {
				break drain
			}
			outs = append(outs, s.ref.Ingest(from, u)...)
		default:
			break drain
		}
	}
	s.fanOut(from, outs)
}

// fanOut sends outs from router from to every other session, with s.mu
// held, in router ID order: encoded once, one write per target. A
// failed write closes its session, whose serveConn then purges it.
func (s *RRServer) fanOut(from netip.Addr, outs []bgp.Update) {
	if len(outs) == 0 {
		return
	}
	enc, _ := bgp.EncodeUpdates(outs)
	for _, id := range detsort.KeysFunc(s.peers, netip.Addr.Compare) {
		if id != from {
			_ = s.peers[id].Send(enc)
		}
	}
}

// hasCover is the Loc-RIB's Reflector.HasCover: the management
// interface's static cover check.
func (s *RRServer) hasCover(sub netip.Prefix) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref.HasCover(sub)
}

// convergence returns the span layer SetConvergence attached (nil:
// none), which the management interface opens its events in.
func (s *RRServer) convergence() *telemetry.Convergence {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref.conv
}

// ErrNotEstablished reports a dial that never reached Established.
var ErrNotEstablished = errors.New("core: session not established")

// DialRR connects an egress router to the reflector and returns the
// established session. The caller announces routes with SendUpdate and
// receives reflected routes on Updates().
func DialRR(addr string, localAS uint16, routerID netip.Addr) (*bgp.Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sess, err := bgp.Handshake(conn, bgp.SessionConfig{LocalAS: localAS, LocalID: routerID})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotEstablished, err)
	}
	return sess, nil
}
