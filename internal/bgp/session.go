package bgp

import (
	"bufio"
	"encoding/binary"
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
// the caller sends routes with SendUpdate, or a batch encoded once with
// EncodeUpdates with Send. Every message in, from the peer's OPEN on, is
// read through one buffer of the maximum message size, so one read takes
// in every message that is waiting.
type Session struct {
	conn net.Conn
	br   *bufio.Reader
	cfg  SessionConfig

	peer     Open
	holdTime time.Duration

	state atomic.Int32
	// updates holds 1 024 decoded UPDATEs of read-ahead. These queues
	// are most of a deployment's live heap, and the GC paces itself on
	// the live heap: at 16 slots the allocation-heavy failover override
	// path ran 25 % slower (DESIGN.md, "Decoded-UPDATE queue").
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
		br:      bufio.NewReaderSize(conn, maxMsgLen),
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

	msg, err := s.readMessage(cfg.holdTime())
	if err != nil {
		if isTimeout(err) {
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
	msg, err = s.readMessage(s.holdTime)
	if err != nil {
		if isTimeout(err) {
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

// Encoded is a run of UPDATE messages in wire format, back to back. It
// is encoded once (EncodeUpdates) and can be sent unchanged on any
// number of sessions; Send never modifies it.
type Encoded struct {
	buf []byte
	n   int // messages in buf
}

// EncodeUpdates encodes us, in order, into one buffer. An UPDATE that
// cannot be encoded is left out and the rest are kept; the error
// returned is the first such failure.
func EncodeUpdates(us []Update) (Encoded, error) {
	var e Encoded
	var first error
	for _, u := range us {
		var err error
		if e.buf, err = appendMessage(e.buf, u); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		e.n++
	}
	return e, first
}

// SendUpdate transmits one UPDATE message: Send of a one-message
// encoding.
func (s *Session) SendUpdate(u Update) error {
	e, err := EncodeUpdates([]Update{u})
	if err != nil {
		return err
	}
	return s.Send(e)
}

// Send writes every message of e to the peer in one Write under one
// write deadline, so a reflector fanning one received UPDATE out to n
// clients makes n writes however many messages it reflects. An empty e
// writes nothing.
func (s *Session) Send(e Encoded) error {
	select {
	case <-s.closed:
		return ErrSessionClosed
	default:
	}
	if e.n == 0 {
		return nil
	}
	return s.send(e.buf, MsgUpdate, e.n)
}

// Close terminates the session with a Cease notification.
func (s *Session) Close() error {
	s.shutdown(nil, true)
	return nil
}

// write encodes and sends one message of any type.
func (s *Session) write(m Message) error {
	buf, err := Marshal(m)
	if err != nil {
		return err
	}
	return s.send(buf, m.Type(), 1)
}

// send is the one write path: buf holds n messages of type t, written
// with one Write under one 10 s deadline and counted once written. A
// failed write closes the connection (RFC 4271 drops a session on a
// transport failure; a partial write broke the framing anyway) and the
// read loop ends the session: not shutdown, whose Cease comes through here.
func (s *Session) send(buf []byte, t MessageType, n int) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	err := s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err == nil {
		_, err = s.conn.Write(buf)
	}
	if err != nil {
		s.conn.Close()
		return err
	}
	s.cfg.Metrics.msgsSent(t, n)
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

// isTimeout reports whether err is, or wraps, a transport timeout: the
// hold timer's read deadline passing.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// frame frames the next message from the read buffer (nextFrame). The
// hold timer is armed once per message, for hold, before the first read
// the message needs, and not again on later reads, so a peer that
// trickles a message in a byte at a time still expires; a message
// already whole in the buffer needs no read and no deadline. The body
// aliases the buffer until the message is discarded.
func (s *Session) frame(hold time.Duration) (MessageType, []byte, error) {
	if !s.buffered() {
		if err := s.conn.SetReadDeadline(time.Now().Add(hold)); err != nil {
			return 0, nil, err
		}
	}
	return nextFrame(s.br)
}

// buffered reports whether the next message is whole in the read
// buffer.
func (s *Session) buffered() bool {
	n := s.br.Buffered()
	if n < headerLen {
		return false
	}
	hdr, _ := s.br.Peek(headerLen) // buffered: reads nothing
	return len(hdr) == headerLen && n >= int(binary.BigEndian.Uint16(hdr[16:18]))
}

// readMessage reads and decodes one message of any type, counting it
// in, with the hold timer armed for hold: the handshake's reads.
func (s *Session) readMessage(hold time.Duration) (Message, error) {
	t, body, err := s.frame(hold)
	if err != nil {
		return nil, err
	}
	msg, err := unmarshalBody(t, body)
	s.br.Discard(headerLen + len(body))
	if err == nil {
		s.cfg.Metrics.msgIn(t)
	}
	return msg, err
}

// readLoop reads the established session's messages. An UPDATE is
// decoded straight from the read buffer into the value delivered on
// Updates(), not boxed as a Message.
func (s *Session) readLoop() {
	defer close(s.updates)
	for {
		t, body, err := s.frame(s.holdTime)
		var u Update
		var msg Message
		if err == nil {
			if t == MsgUpdate {
				u, err = decodeUpdate(body)
			} else {
				msg, err = unmarshalBody(t, body)
			}
			s.br.Discard(headerLen + len(body))
		}
		if err != nil {
			select {
			case <-s.closed: // closed locally; not an error
				return
			default:
			}
			if isTimeout(err) {
				_ = s.write(Notification{Code: NotifHoldTimerExpired})
				s.shutdown(fmt.Errorf("bgp: hold timer expired"), false)
			} else {
				s.shutdown(err, false)
			}
			return
		}
		s.cfg.Metrics.msgIn(t)
		switch t {
		case MsgUpdate:
			select {
			case s.updates <- u:
			case <-s.closed:
				return
			}
		case MsgKeepalive:
			// Resets the hold timer: the next read arms a fresh deadline.
		case MsgNotification:
			s.shutdown(msg.(Notification), false)
			return
		case MsgOpen:
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
			if s.write(Keepalive{}) != nil {
				return // send closed the connection; the read loop ends the session
			}
		case <-s.closed:
			return
		}
	}
}
