package bgp

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vns/internal/telemetry"
)

// pairTCP returns two connected TCP conns over loopback. TCP (rather
// than net.Pipe) is used because the OPEN exchange has both sides write
// first, which deadlocks on an unbuffered pipe.
func pairTCP(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	dial, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { dial.Close(); r.c.Close() })
	return dial, r.c
}

func handshakePair(t *testing.T, cfgA, cfgB SessionConfig) (*Session, *Session) {
	t.Helper()
	ca, cb := pairTCP(t)
	type res struct {
		s   *Session
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := Handshake(cb, cfgB)
		ch <- res{s, err}
	}()
	sa, err := Handshake(ca, cfgA)
	if err != nil {
		t.Fatalf("handshake A: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("handshake B: %v", r.err)
	}
	t.Cleanup(func() { sa.Close(); r.s.Close() })
	return sa, r.s
}

// state reads a session's FSM state.
func state(s *Session) State { return State(s.state.Load()) }

// eventLog collects a session's Logf lines; the one written at shutdown
// names the error that ended the session.
type eventLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *eventLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *eventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func TestHandshakeEstablishes(t *testing.T) {
	a, b := handshakePair(t,
		SessionConfig{LocalAS: 65001, LocalID: addr("10.0.0.1")},
		SessionConfig{LocalAS: 65002, LocalID: addr("10.0.0.2")})
	if state(a) != StateEstablished || state(b) != StateEstablished {
		t.Errorf("states: %v %v", state(a), state(b))
	}
	if a.PeerID() != addr("10.0.0.2") {
		t.Errorf("peer ID: %v", a.PeerID())
	}
}

func TestUpdateExchange(t *testing.T) {
	a, b := handshakePair(t,
		SessionConfig{LocalAS: 65001, LocalID: addr("10.0.0.1")},
		SessionConfig{LocalAS: 65002, LocalID: addr("10.0.0.2")})

	want := Update{
		Attrs: Attrs{
			ASPath:  []ASPathSegment{{ASNs: []uint16{65001}}},
			NextHop: addr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{prefix("203.0.113.0/24")},
	}
	if err := a.SendUpdate(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Updates():
		if got.NLRI[0] != want.NLRI[0] || got.Attrs.FirstAS() != 65001 {
			t.Errorf("got %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
}

func TestManyUpdates(t *testing.T) {
	a, b := handshakePair(t,
		SessionConfig{LocalAS: 65001, LocalID: addr("10.0.0.1")},
		SessionConfig{LocalAS: 65002, LocalID: addr("10.0.0.2")})
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
			u := Update{
				Attrs: Attrs{ASPath: []ASPathSegment{{ASNs: []uint16{65001}}}, NextHop: addr("192.0.2.1")},
				NLRI:  []netip.Prefix{p},
			}
			if err := a.SendUpdate(u); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	seen := 0
	timeout := time.After(10 * time.Second)
	for seen < n {
		select {
		case _, ok := <-b.Updates():
			if !ok {
				t.Fatalf("session closed after %d updates", seen)
			}
			seen++
		case <-timeout:
			t.Fatalf("timeout after %d/%d updates", seen, n)
		}
	}
}

func TestCloseSendsCease(t *testing.T) {
	var log eventLog
	a, b := handshakePair(t,
		SessionConfig{LocalAS: 65001, LocalID: addr("10.0.0.1")},
		SessionConfig{LocalAS: 65002, LocalID: addr("10.0.0.2"), Logf: log.logf})
	a.Close()
	select {
	case <-b.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not observe close")
	}
	if want := (Notification{Code: NotifCease}).Error(); !strings.Contains(log.String(), want) {
		t.Errorf("peer log = %q, want Cease notification", log.String())
	}
	if err := a.SendUpdate(Update{}); err != ErrSessionClosed {
		t.Errorf("send after close = %v, want ErrSessionClosed", err)
	}
}

func TestHoldTimerExpiry(t *testing.T) {
	// Peer B stops sending anything by having an enormous keepalive
	// interval relative to A's tiny hold time: configure A with a hold
	// time of 3s (minimum) and kill B's conn writes by closing B's
	// underlying conn after handshake... Simpler: dial raw and never
	// send keepalives after handshake.
	ca, cb := pairTCP(t)
	done := make(chan *Session, 1)
	go func() {
		s, err := Handshake(cb, SessionConfig{LocalAS: 2, LocalID: addr("10.0.0.2"), HoldTime: time.Hour})
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- s
	}()
	a, err := Handshake(ca, SessionConfig{LocalAS: 1, LocalID: addr("10.0.0.1"), HoldTime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	b := <-done
	if b == nil {
		t.Fatal("peer handshake failed")
	}
	// Negotiated hold time is min(3s, 1h) = 3s on both sides; both sides
	// keepalive at 1s so the session should stay up for several seconds.
	select {
	case <-a.closed:
		t.Fatal("session died prematurely")
	case <-time.After(4 * time.Second):
	}
	// Now silence B entirely: stop its loops by closing its conn.
	b.Close()
	select {
	case <-a.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("A did not notice dead peer")
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	ca, cb := pairTCP(t)
	go func() {
		// A raw peer that sends a bogus version.
		buf, _ := Marshal(Open{Version: 3, AS: 9, ID: addr("10.0.0.9")})
		cb.Write(buf)
		// Drain whatever comes back.
		for {
			if _, err := ReadMessage(cb); err != nil {
				return
			}
		}
	}()
	if _, err := Handshake(ca, SessionConfig{LocalAS: 1, LocalID: addr("10.0.0.1")}); err == nil {
		t.Fatal("version mismatch should fail handshake")
	}
}

func TestHandshakeGarbage(t *testing.T) {
	ca, cb := pairTCP(t)
	go func() {
		cb.Write([]byte("definitely not bgp at all, not even close........"))
		cb.Close()
	}()
	if _, err := Handshake(ca, SessionConfig{LocalAS: 1, LocalID: addr("10.0.0.1")}); err == nil {
		t.Fatal("garbage should fail handshake")
	}
}

func TestStateString(t *testing.T) {
	if StateEstablished.String() != "Established" || StateIdle.String() != "Idle" {
		t.Error("state names")
	}
	if State(42).String() != "State(42)" {
		t.Error("unknown state name")
	}
}

// TestHoldTimerExpiryNotification establishes a session against a hand-rolled wire
// peer that completes the handshake and then goes silent. The session
// must detect the silence within the negotiated hold time, send a
// NOTIFICATION with the hold-timer-expired code, and transition cleanly
// to Idle.
func TestHoldTimerExpiryNotification(t *testing.T) {
	ca, cb := pairTCP(t)

	// The raw peer: OPEN + initial KEEPALIVE, then silence. It keeps
	// reading so our keepalives don't back up, and reports the first
	// NOTIFICATION it receives.
	notifCh := make(chan Notification, 1)
	go func() {
		defer cb.Close()
		for _, m := range []Message{
			Open{Version: version4, AS: 65001, HoldTime: 3, ID: addr("10.0.0.2")},
			Keepalive{},
		} {
			buf, err := Marshal(m)
			if err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
			if _, err := cb.Write(buf); err != nil {
				t.Errorf("peer write: %v", err)
				return
			}
		}
		cb.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			msg, err := ReadMessage(cb)
			if err != nil {
				return
			}
			if n, ok := msg.(Notification); ok {
				notifCh <- n
				return
			}
		}
	}()

	var log eventLog
	s, err := Handshake(ca, SessionConfig{LocalAS: 65000, LocalID: addr("10.0.0.1"), HoldTime: 3 * time.Second, Logf: log.logf})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if state(s) != StateEstablished {
		t.Fatalf("state = %v, want Established", state(s))
	}

	start := time.Now()
	select {
	case <-s.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("session did not detect peer silence")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("expiry took %v, hold time is 3s", waited)
	}
	if !strings.Contains(log.String(), "hold timer") {
		t.Errorf("session log = %q, want hold timer expiry", log.String())
	}
	if state(s) != StateIdle {
		t.Errorf("state after expiry = %v, want Idle", state(s))
	}
	select {
	case n := <-notifCh:
		if n.Code != NotifHoldTimerExpired {
			t.Errorf("peer received notification code %d, want %d", n.Code, NotifHoldTimerExpired)
		}
	case <-time.After(5 * time.Second):
		t.Error("peer never received a NOTIFICATION")
	}
}

// countingConn counts the Write calls made on the wrapped conn.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeSession returns a session writing to one end of a net.Pipe
// through a countingConn, and a channel of every message decoded from
// the other end. Handshake would deadlock on a pipe (both ends write
// OPEN first), so the session is built directly, with no read or
// keepalive loop: only the send side is under test.
func pipeSession(t *testing.T, m *Metrics) (*Session, *countingConn, <-chan Message) {
	t.Helper()
	local, remote := net.Pipe()
	t.Cleanup(func() { local.Close(); remote.Close() })
	cc := &countingConn{Conn: local}
	s := &Session{
		conn:   cc,
		cfg:    SessionConfig{LocalAS: 65001, LocalID: addr("10.0.0.1"), Metrics: m},
		closed: make(chan struct{}),
	}
	msgs := make(chan Message, 64)
	go func() {
		defer close(msgs)
		for {
			msg, err := ReadMessage(remote)
			if err != nil {
				return
			}
			msgs <- msg
		}
	}()
	return s, cc, msgs
}

// sendBatch is a run of UPDATEs of every shape the reflector sends: a
// withdrawal, single- and multi-prefix announcements, reflection
// attributes.
func sendBatch() []Update {
	attrs := Attrs{
		ASPath:       []ASPathSegment{{ASNs: []uint16{65001, 65002}}},
		NextHop:      addr("192.0.2.1"),
		LocalPref:    1500,
		HasLocalPref: true,
		OriginatorID: addr("10.0.1.1"),
		ClusterList:  []netip.Addr{addr("10.0.0.100")},
	}
	return []Update{
		{Withdrawn: []netip.Prefix{prefix("198.51.100.0/24")}},
		{Attrs: attrs, NLRI: []netip.Prefix{prefix("203.0.113.0/24")}},
		{Attrs: attrs, NLRI: []netip.Prefix{prefix("10.1.0.0/16"), prefix("10.2.0.0/16")}},
		{Withdrawn: []netip.Prefix{prefix("10.9.0.0/16"), prefix("10.8.0.0/15")}},
		{Attrs: attrs, NLRI: []netip.Prefix{prefix("172.16.0.0/12")}},
	}
}

func sameUpdate(a, b Update) bool {
	return slices.Equal(a.Withdrawn, b.Withdrawn) && slices.Equal(a.NLRI, b.NLRI) && a.Attrs.Equal(b.Attrs)
}

// TestSessionSendBatchOneWrite: a batch of m UPDATEs is one Write of
// exactly the bytes Marshal gives each message, counts m UPDATEs out,
// and decodes on the far end as the same m messages in order. An UPDATE
// that cannot be encoded is left out alone.
func TestSessionSendBatchOneWrite(t *testing.T) {
	reg := telemetry.New()
	m := NewMetrics(reg)
	s, cc, msgs := pipeSession(t, m)
	want := sendBatch()

	// An IPv6 NLRI cannot be encoded; it is dropped, the rest kept.
	in := slices.Insert(slices.Clone(want), 2, Update{
		Attrs: want[1].Attrs, NLRI: []netip.Prefix{prefix("2001:db8::/32")},
	})
	enc, err := EncodeUpdates(in)
	if err == nil {
		t.Fatal("EncodeUpdates accepted an IPv6 NLRI")
	}
	var wire []byte
	for _, u := range want {
		b, err := Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, b...)
	}
	if !bytes.Equal(enc.buf, wire) || enc.n != len(want) {
		t.Fatalf("encoded %d messages / %d bytes, want %d / %d (Marshal of each)", enc.n, len(enc.buf), len(want), len(wire))
	}

	out := m.msgsOut[MsgUpdate]
	before := out.Value()
	if err := s.Send(enc); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 1 {
		t.Errorf("a batch of %d UPDATEs took %d writes, want 1", len(want), got)
	}
	if got := out.Value() - before; got != uint64(len(want)) {
		t.Errorf("bgp_messages_out_total{type=update} advanced by %d, want %d", got, len(want))
	}
	for i, w := range want {
		select {
		case msg := <-msgs:
			if u, ok := msg.(Update); !ok || !sameUpdate(u, w) {
				t.Fatalf("message %d = %+v, want %+v", i, msg, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}

	// An empty batch writes nothing.
	if err := s.Send(Encoded{}); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 1 {
		t.Errorf("an empty batch wrote: %d writes in total, want 1", got)
	}
}

// TestSessionSendClosed: once a session is closed, Send and SendUpdate
// return ErrSessionClosed and write and count nothing.
func TestSessionSendClosed(t *testing.T) {
	m := NewMetrics(telemetry.New())
	s, cc, _ := pipeSession(t, m)
	enc, err := EncodeUpdates(sendBatch())
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // writes the Cease
	writes, sent := cc.writes.Load(), m.msgsOut[MsgUpdate].Value()
	if err := s.Send(enc); err != ErrSessionClosed {
		t.Errorf("Send after close = %v, want ErrSessionClosed", err)
	}
	if err := s.SendUpdate(sendBatch()[1]); err != ErrSessionClosed {
		t.Errorf("SendUpdate after close = %v, want ErrSessionClosed", err)
	}
	if got := cc.writes.Load(); got != writes {
		t.Errorf("closed session made %d writes", got-writes)
	}
	if got := m.msgsOut[MsgUpdate].Value(); got != sent {
		t.Errorf("closed session counted %d UPDATEs out", got-sent)
	}
}
