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

// RRServer runs the GeoRR as a real BGP speaker: it accepts iBGP
// sessions from egress routers over TCP, applies the geo local-pref
// rewrite to every received route, installs it in a Loc-RIB, and
// reflects the modified route to every other peer — the wire-level
// equivalent of the modified Quagga reflector.
//
// The Loc-RIB is sharded (rib.ShardedTable): each received UPDATE is
// applied as one coalesced batch whose decision-process reruns fan out
// across prefix-range shards, which is what keeps ingest tractable at
// full-Internet table scale. s.mu serializes batches, preserving the
// single-writer discipline ShardedTable requires.
type RRServer struct {
	rr  *GeoRR
	cfg bgp.SessionConfig
	ln  net.Listener

	mu    sync.Mutex
	peers map[netip.Addr]*bgp.Session
	table *rib.ShardedTable
	wg    sync.WaitGroup

	// conv, when non-nil, assigns each UPDATE batch a convergence event
	// and records its ingest/georr/select/forwarding stage latencies.
	conv *telemetry.Convergence

	closeOnce sync.Once
}

// NewRRServer starts the reflector listening on addr (e.g.
// "127.0.0.1:0"). localAS and routerID identify the reflector in its
// OPEN messages.
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
		rr:    rr,
		cfg:   bgp.SessionConfig{LocalAS: localAS, LocalID: routerID},
		ln:    ln,
		peers: make(map[netip.Addr]*bgp.Session),
		table: rib.NewSharded(0),
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
	s.table.SetMetrics(rib.NewMetrics(reg))
}

// SetConvergence attaches the deployment's shared convergence span
// layer (the forwarding plane constructs it; see vns.Forwarding): every
// subsequently received UPDATE becomes one "update" convergence event
// whose stage latencies — op ingest, geo assignment, sharded best-path
// selection, forwarding-plane invalidation — are recorded per batch.
func (s *RRServer) SetConvergence(c *telemetry.Convergence) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conv = c
}

// Close shuts down the server and all sessions.
func (s *RRServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.ln.Close()
		s.mu.Lock()
		//vnslint:maprange closing every session; each Close is independent, order cannot escape
		for _, sess := range s.peers {
			sess.Close()
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
	return s.table.Best(prefix)
}

// NumRoutes returns the number of prefixes in the Loc-RIB.
func (s *RRServer) NumRoutes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Len()
}

// NumPeers returns the number of established sessions.
func (s *RRServer) NumPeers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// GeoRR exposes the underlying reflector for management operations.
func (s *RRServer) GeoRR() *GeoRR { return s.rr }

func (s *RRServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *RRServer) serveConn(conn net.Conn) {
	s.mu.Lock()
	cfg := s.cfg
	s.mu.Unlock()
	sess, err := bgp.Handshake(conn, cfg)
	if err != nil {
		return
	}
	peerID := sess.PeerID()
	s.mu.Lock()
	if old, dup := s.peers[peerID]; dup {
		old.Close()
	}
	s.peers[peerID] = sess
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		stillOwner := s.peers[peerID] == sess
		if stillOwner {
			delete(s.peers, peerID)
		}
		s.mu.Unlock()
		sess.Close()
		if stillOwner {
			s.purgePeer(peerID)
		}
	}()

	for u := range sess.Updates() {
		s.handleUpdate(peerID, u)
	}
}

// purgePeer withdraws every route learned from a dead peer and
// propagates the withdrawals, so a crashed egress router does not leave
// stale geo-routed paths behind. The withdrawals are packed, encoded
// once and written to each remaining peer in one write (fanOut).
func (s *RRServer) purgePeer(peerID netip.Addr) {
	s.mu.Lock()
	var ops []rib.Op
	var gone []netip.Prefix
	for _, p := range s.table.Prefixes() {
		for _, r := range s.table.Candidates(p) {
			if r.PeerID == peerID {
				ops = append(ops, rib.WithdrawOp(p, peerID, peerID))
				gone = append(gone, p)
				break
			}
		}
	}
	s.table.ApplyBatch(ops)
	targets := make([]*bgp.Session, 0, len(s.peers))
	for _, id := range detsort.KeysFunc(s.peers, netip.Addr.Compare) {
		targets = append(targets, s.peers[id])
	}
	s.mu.Unlock()

	if len(gone) == 0 {
		return
	}
	fanOut(targets, bgp.PackWithdrawals(gone))
}

// handleUpdate processes one UPDATE from an egress router as a single
// coalesced batch: withdraws and announcements land in the sharded
// Loc-RIB through one ApplyBatch (withdraw ops first, so an
// announce+withdraw of the same prefix in one UPDATE resolves the way
// sequential RFC 4271 processing would), then withdrawals whose best
// path actually changed are propagated, and announcements get the geo
// local-pref and are reflected to all other peers (splitting
// multi-prefix NLRI so each prefix geolocates independently). Every
// outbound UPDATE is encoded once, shared by all peers, and each peer
// receives this UPDATE's reflections in one write (fanOut).
func (s *RRServer) handleUpdate(from netip.Addr, u bgp.Update) {
	// Reflection loop check (RFC 4456 §8); the cluster ID is the router
	// ID, as reflectAttrs stamps it.
	if u.Attrs.HasClusterLoop(s.cfg.LocalID) {
		return
	}
	var outs []bgp.Update
	s.mu.Lock()
	// One convergence event per UPDATE batch; Begin under s.mu so the
	// active event matches the batch the publishers are flushing for.
	ev := s.conv.Begin(telemetry.ConvUpdate)

	mark := ev.Mark()
	ops := make([]rib.Op, 0, len(u.Withdrawn)+len(u.NLRI))
	for _, w := range u.Withdrawn {
		ops = append(ops, rib.WithdrawOp(w, from, from))
	}
	ev.Stage(telemetry.StageIngest, mark)

	mark = ev.Mark()
	geoOuts := make([]bgp.Update, 0, len(u.NLRI))
	for _, p := range u.NLRI {
		single := bgp.Update{Attrs: u.Attrs, NLRI: []netip.Prefix{p}}
		out := s.rr.ProcessUpdateQuiet(from, single)
		out.Attrs = reflectAttrs(out.Attrs, from, s.cfg.LocalID)
		ops = append(ops, rib.Announce(&rib.Route{
			Prefix:   p,
			Attrs:    out.Attrs,
			PeerAS:   u.Attrs.FirstAS(),
			PeerID:   from,
			PeerAddr: from,
		}))
		geoOuts = append(geoOuts, out)
	}
	ev.Stage(telemetry.StageGeoRR, mark)

	mark = ev.Mark()
	changed := s.table.ApplyBatch(ops)
	ev.Stage(telemetry.StageSelect, mark)
	bestChanged := make(map[netip.Prefix]bool, len(changed))
	for _, p := range changed {
		bestChanged[p] = true
	}
	for _, w := range u.Withdrawn {
		// Same gating as the sequential path: only a withdrawal that
		// actually moved the best path propagates. An announce of the
		// same prefix later in this UPDATE supersedes the withdrawal in
		// the batch, and its reflection below carries the news.
		if bestChanged[w] {
			outs = append(outs, bgp.Update{Withdrawn: []netip.Prefix{w}})
		}
	}
	outs = append(outs, geoOuts...)

	// Forwarding-plane fan-out: one batched notification for the whole
	// UPDATE (ProcessUpdateQuiet deferred it), so each PoP's publisher
	// flushes once. Compile time inside the flushes is attributed to
	// this event and excluded here — the stages tile the event.
	mark = ev.Mark()
	touched := make([]netip.Prefix, 0, len(u.Withdrawn)+len(u.NLRI))
	touched = append(touched, u.Withdrawn...)
	touched = append(touched, u.NLRI...)
	s.rr.NotifyChanged(touched...)
	ev.StageExclusive(telemetry.StageForwarding, mark)

	targets := make([]*bgp.Session, 0, len(s.peers))
	for _, id := range detsort.KeysFunc(s.peers, netip.Addr.Compare) {
		if id != from {
			targets = append(targets, s.peers[id])
		}
	}
	s.mu.Unlock()
	// The event ends when the FIBs are republished and the outbound set
	// is built; reflection sends below are propagation, not local
	// convergence.
	ev.Finish()

	fanOut(targets, outs)
}

// fanOut encodes outs once and sends all of them to each target in one
// write, so every target sees the messages in order. An UPDATE that
// fails to encode is dropped alone. A dead session is reaped by its own
// serveConn; send errors are ignored here.
func fanOut(targets []*bgp.Session, outs []bgp.Update) {
	enc, _ := bgp.EncodeUpdates(outs)
	for _, sess := range targets {
		_ = sess.Send(enc)
	}
}

// reflectAttrs is the RFC 4456 attribute rule: stamp ORIGINATOR_ID with
// the originating router unless already set, and prepend the reflector's
// cluster ID to the CLUSTER_LIST. The reflector's cluster ID is its
// router ID, the one the loop check in handleUpdate drops routes on.
func reflectAttrs(attrs bgp.Attrs, originator, clusterID netip.Addr) bgp.Attrs {
	if !attrs.OriginatorID.IsValid() {
		attrs.OriginatorID = originator
	}
	attrs.ClusterList = append([]netip.Addr{clusterID}, attrs.ClusterList...)
	return attrs
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
