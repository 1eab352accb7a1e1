package bgp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// State is the BGP finite-state-machine state (RFC 4271 §8.2.2). The
// Connect/Active TCP states are owned by the caller, who hands an
// established net.Conn to Handshake; the session itself walks OpenSent →
// OpenConfirm → Established.
type State int32

// FSM states.
const (
	StateIdle State = iota
	StateConnect
	StateActive
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

var stateNames = [...]string{"Idle", "Connect", "Active", "OpenSent", "OpenConfirm", "Established"}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// SessionConfig configures the local end of a BGP session.
type SessionConfig struct {
	LocalAS uint16
	LocalID netip.Addr
	// HoldTime proposed to the peer. Zero means the package default of
	// 90 seconds; the negotiated value is the minimum of both ends.
	HoldTime time.Duration
	// Logf, when non-nil, receives one line per protocol event.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives FSM transitions and per-type
	// message counts through pre-resolved handles (see NewMetrics).
	Metrics *Metrics
}

func (c *SessionConfig) holdTime() time.Duration {
	if c.HoldTime == 0 {
		return 90 * time.Second
	}
	return c.HoldTime
}

func (c *SessionConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ErrSessionClosed is returned by operations on a session that has shut
// down.
var ErrSessionClosed = errors.New("bgp: session closed")

// Session is one established BGP session over a reliable transport.
// Create it with Handshake. Received UPDATEs are delivered on Updates();
// the caller sends routes with SendUpdate.
type Session struct {
	conn net.Conn
	cfg  SessionConfig

	peer     Open
	holdTime time.Duration

	state   atomic.Int32
	updates chan Update
	sendMu  sync.Mutex

	closeOnce sync.Once
	closed    chan struct{}
}

// Handshake runs the OPEN exchange over conn and returns an Established
// session. On any protocol error the connection is closed and a
// NOTIFICATION is sent when appropriate.
//
// Both sides call Handshake; the protocol is symmetric from this point
// (connection-collision resolution is the dialer's problem and does not
// arise in VNS's statically configured sessions).
func Handshake(conn net.Conn, cfg SessionConfig) (*Session, error) {
	s := &Session{
		conn:    conn,
		cfg:     cfg,
		updates: make(chan Update, 1024),
		closed:  make(chan struct{}),
	}
	s.setState(StateOpenSent)

	open := Open{
		Version:  version4,
		AS:       cfg.LocalAS,
		HoldTime: uint16(cfg.holdTime() / time.Second),
		ID:       cfg.LocalID,
	}
	if err := s.write(open); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: sending OPEN: %w", err)
	}

	deadline := time.Now().Add(cfg.holdTime())
	if err := conn.SetReadDeadline(deadline); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: arming OPEN timer: %w", err)
	}
	msg, err := ReadMessage(conn)
	if err == nil {
		cfg.Metrics.msgIn(msg.Type())
	}
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			// RFC 4271 §8.2.2: the hold timer runs during OpenSent too;
			// expiring there sends the same NOTIFICATION as in
			// Established, so the silent peer learns why we hung up.
			s.notifyAndClose(NotifHoldTimerExpired, 0)
			return nil, fmt.Errorf("bgp: hold timer expired waiting for OPEN")
		}
		conn.Close()
		return nil, fmt.Errorf("bgp: waiting for OPEN: %w", err)
	}
	peer, ok := msg.(Open)
	if !ok {
		s.notifyAndClose(NotifFSMError, 0)
		return nil, fmt.Errorf("bgp: expected OPEN, got %v", msg.Type())
	}
	if peer.Version != version4 {
		s.notifyAndClose(NotifOpenMessageError, 1) // unsupported version
		return nil, fmt.Errorf("bgp: peer version %d unsupported", peer.Version)
	}
	if peer.HoldTime != 0 && peer.HoldTime < 3 {
		s.notifyAndClose(NotifOpenMessageError, 6) // unacceptable hold time
		return nil, fmt.Errorf("bgp: peer hold time %d unacceptable", peer.HoldTime)
	}
	s.peer = peer
	s.holdTime = cfg.holdTime()
	if d := time.Duration(peer.HoldTime) * time.Second; d > 0 && d < s.holdTime {
		s.holdTime = d
	}
	s.setState(StateOpenConfirm)
	cfg.logf("open exchanged with AS%d id %v, hold %v", peer.AS, peer.ID, s.holdTime)

	if err := s.write(Keepalive{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: sending KEEPALIVE: %w", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(s.holdTime)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: arming hold timer: %w", err)
	}
	msg, err = ReadMessage(conn)
	if err == nil {
		cfg.Metrics.msgIn(msg.Type())
	}
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			// Hold timer expiry in OpenConfirm (RFC 4271 §8.2.2).
			s.notifyAndClose(NotifHoldTimerExpired, 0)
			return nil, fmt.Errorf("bgp: hold timer expired waiting for KEEPALIVE")
		}
		conn.Close()
		return nil, fmt.Errorf("bgp: waiting for KEEPALIVE: %w", err)
	}
	switch msg.(type) {
	case Keepalive:
	case Notification:
		conn.Close()
		return nil, msg.(Notification)
	default:
		s.notifyAndClose(NotifFSMError, 0)
		return nil, fmt.Errorf("bgp: expected KEEPALIVE, got %v", msg.Type())
	}
	s.setState(StateEstablished)
	s.cfg.Metrics.establishedDelta(1)
	cfg.logf("session established with AS%d", peer.AS)

	go s.readLoop()
	go s.keepaliveLoop()
	return s, nil
}

// setState enters a new FSM state and counts the transition.
func (s *Session) setState(st State) {
	s.state.Store(int32(st))
	s.cfg.Metrics.transition(st)
}

// PeerID returns the peer's BGP identifier.
func (s *Session) PeerID() netip.Addr { return s.peer.ID }

// Updates returns the channel on which received UPDATE messages are
// delivered. The channel is closed when the session ends.
func (s *Session) Updates() <-chan Update { return s.updates }

// SendUpdate transmits an UPDATE message.
func (s *Session) SendUpdate(u Update) error {
	select {
	case <-s.closed:
		return ErrSessionClosed
	default:
	}
	return s.write(u)
}

// Close terminates the session with a Cease notification.
func (s *Session) Close() error {
	s.shutdown(nil, true)
	return nil
}

func (s *Session) write(m Message) error {
	buf, err := Marshal(m)
	if err != nil {
		return err
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if err := s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if _, err := s.conn.Write(buf); err != nil {
		return err
	}
	s.cfg.Metrics.msgOut(m.Type())
	return nil
}

func (s *Session) notifyAndClose(code, subcode uint8) {
	_ = s.write(Notification{Code: code, Subcode: subcode})
	s.conn.Close()
}

func (s *Session) shutdown(err error, sendCease bool) {
	s.closeOnce.Do(func() {
		if err != nil {
			s.cfg.logf("session with AS%d closed: %v", s.peer.AS, err)
		}
		if sendCease {
			_ = s.write(Notification{Code: NotifCease})
		}
		if State(s.state.Load()) == StateEstablished {
			s.cfg.Metrics.establishedDelta(-1)
		}
		s.setState(StateIdle)
		s.conn.Close()
		close(s.closed)
	})
}

func (s *Session) readLoop() {
	defer close(s.updates)
	for {
		err := s.conn.SetReadDeadline(time.Now().Add(s.holdTime))
		var msg Message
		if err == nil {
			msg, err = ReadMessage(s.conn)
			if err == nil {
				s.cfg.Metrics.msgIn(msg.Type())
			}
		}
		if err != nil {
			select {
			case <-s.closed: // closed locally; not an error
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				_ = s.write(Notification{Code: NotifHoldTimerExpired})
				s.shutdown(fmt.Errorf("bgp: hold timer expired"), false)
			} else {
				s.shutdown(err, false)
			}
			return
		}
		switch m := msg.(type) {
		case Update:
			select {
			case s.updates <- m:
			case <-s.closed:
				return
			}
		case Keepalive:
			// Resets the hold timer implicitly via the next deadline.
		case Notification:
			s.shutdown(m, false)
			return
		case Open:
			_ = s.write(Notification{Code: NotifFSMError})
			s.shutdown(fmt.Errorf("bgp: unexpected OPEN in established state"), false)
			return
		}
	}
}

func (s *Session) keepaliveLoop() {
	if s.holdTime <= 0 {
		return
	}
	interval := s.holdTime / 3
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.write(Keepalive{}); err != nil {
				s.shutdown(fmt.Errorf("bgp: keepalive write: %w", err), false)
				return
			}
		case <-s.closed:
			return
		}
	}
}
