package bgp

import (
	"bufio"
	"bytes"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// This file covers the session's buffered read path: framing a stream
// that arrives in arbitrary pieces, the hold timer armed once per
// message, and the hand-off of bytes read ahead during the handshake.

// expectHoldExpiry reads the scripted peer's side until a NOTIFICATION
// arrives, skipping the session's OPEN and KEEPALIVEs, and requires it
// to be HoldTimerExpired within the 3 s hold time plus slack.
func expectHoldExpiry(t *testing.T, peer rawPeer, start time.Time) {
	t.Helper()
	for {
		m := peer.read()
		n, ok := m.(Notification)
		if !ok {
			continue
		}
		if n.Code != NotifHoldTimerExpired {
			t.Fatalf("NOTIFICATION code %d on the wire, want %d (hold timer expired)", n.Code, NotifHoldTimerExpired)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("expiry took %v, hold time is 3s", waited)
		}
		return
	}
}

// establishedPeer scripts a handshake at a 3 s hold time and returns the
// raw peer once the session is Established, with the session's log.
func establishedPeer(t *testing.T) (rawPeer, *Session, *eventLog) {
	t.Helper()
	log := &eventLog{}
	cfg := fsmCfg
	cfg.HoldTime = 3 * time.Second
	cfg.Logf = log.logf
	peer, result := scriptedHandshake(t, cfg)
	peer.send(peerOpen)
	peer.send(Keepalive{})
	out := <-result
	if out.err != nil {
		t.Fatalf("handshake: %v", out.err)
	}
	t.Cleanup(func() { out.s.Close() })
	return peer, out.s, log
}

// updateWire is an UPDATE of 100 bytes on the wire: /24 withdrawals
// of 4 bytes each, then one shorter prefix for the rest.
func updateWire(t *testing.T) []byte {
	t.Helper()
	var u Update
	for len(mustMarshal(t, u))+4 <= 100 {
		u.Withdrawn = append(u.Withdrawn, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(len(u.Withdrawn)), 0}), 24))
	}
	if rest := 100 - len(mustMarshal(t, u)); rest > 0 {
		u.Withdrawn = append(u.Withdrawn, netip.PrefixFrom(netip.AddrFrom4([4]byte{11, 0, 0, 0}), 8*(rest-1)))
	}
	buf := mustMarshal(t, u)
	if len(buf) != 100 {
		t.Fatalf("UPDATE is %d bytes, the test wants 100", len(buf))
	}
	return buf
}

func mustMarshal(tb testing.TB, m Message) []byte {
	tb.Helper()
	buf, err := Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// TestHoldTimerExpiryMidMessageStall: the peer sends an UPDATE header
// promising 100 bytes and 5 of its body, then stalls. The hold timer
// expires inside the message, and the peer is told so with a
// HoldTimerExpired NOTIFICATION (RFC 4271 §6.5), not a silent close.
func TestHoldTimerExpiryMidMessageStall(t *testing.T) {
	t.Parallel()
	peer, s, log := establishedPeer(t)
	start := time.Now()
	if _, err := peer.conn.Write(updateWire(t)[:headerLen+5]); err != nil {
		t.Fatal(err)
	}
	expectHoldExpiry(t, peer, start)
	<-s.closed
	if !strings.Contains(log.String(), "hold timer expired") {
		t.Errorf("session log = %q, want hold timer expiry", log.String())
	}
}

// TestHoldTimerExpiryMidMessageTrickle: a peer that sends one byte of
// a message every second (a third of the 3 s hold time) never completes
// it in time. The deadline is armed once for the message, not again on
// each read, so the session still expires.
func TestHoldTimerExpiryMidMessageTrickle(t *testing.T) {
	t.Parallel()
	peer, s, log := establishedPeer(t)
	wire := updateWire(t)
	start := time.Now()
	go func() {
		for _, b := range wire {
			select {
			case <-s.closed:
				return
			case <-time.After(time.Second):
			}
			if _, err := peer.conn.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	expectHoldExpiry(t, peer, start)
	<-s.closed
	if !strings.Contains(log.String(), "hold timer expired") {
		t.Errorf("session log = %q, want hold timer expiry", log.String())
	}
}

// TestHandshakeHandsOffReadAhead: a peer that writes its OPEN, its
// KEEPALIVE and its first UPDATE in one Write has the UPDATE delivered.
// The handshake's read takes in all three; the bytes it read ahead stay
// in the session's buffer for the read loop.
func TestHandshakeHandsOffReadAhead(t *testing.T) {
	peer, result := scriptedHandshake(t, fsmCfg)
	want := Update{
		Attrs: Attrs{ASPath: []ASPathSegment{{ASNs: []uint16{65001}}}, NextHop: addr("192.0.2.1")},
		NLRI:  []netip.Prefix{prefix("203.0.113.0/24")},
	}
	var wire []byte
	for _, m := range []Message{peerOpen, Keepalive{}, want} {
		wire = append(wire, mustMarshal(t, m)...)
	}
	if _, err := peer.conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	out := <-result
	if out.err != nil {
		t.Fatalf("handshake: %v", out.err)
	}
	t.Cleanup(func() { out.s.Close() })
	select {
	case got := <-out.s.Updates():
		if !sameUpdate(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the UPDATE written with the handshake was never delivered")
	}
}

// streamAttrs are the attribute sets streamFor draws from.
var streamAttrs = []Attrs{
	{ASPath: []ASPathSegment{{ASNs: []uint16{65001, 65002}}}, NextHop: addr("192.0.2.1")},
	fullAttrs(),
	{
		ASPath: []ASPathSegment{{ASNs: []uint16{65001}}}, NextHop: addr("192.0.2.9"),
		LocalPref: 1500, HasLocalPref: true,
		OriginatorID: addr("10.0.1.1"), ClusterList: []netip.Addr{addr("10.0.0.100")},
	},
}

// streamFor is a seeded run of messages of every shape a session reads:
// UPDATEs up to the 4 096-byte maximum (announcements, withdrawals,
// both), KEEPALIVEs, and now and then a malformed frame (bad marker,
// bad length, a body that does not decode) or one that ends the session
// (NOTIFICATION, OPEN), after which more messages may follow.
func streamFor(t *testing.T, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x57AE))
	prefixes := func(n int) []netip.Prefix {
		out := make([]netip.Prefix, n)
		for i := range out {
			bits := 24
			if rng.IntN(4) == 0 {
				bits = 8 + rng.IntN(25)
			}
			a := netip.AddrFrom4([4]byte{byte(1 + rng.IntN(223)), byte(rng.IntN(256)), byte(i), byte(rng.IntN(256))})
			out[i] = netip.PrefixFrom(a, bits).Masked()
		}
		return out
	}
	var stream []byte
	for range 1 + rng.IntN(12) {
		var m Message
		switch r := rng.IntN(20); {
		case r < 9: // an announcement, a third of them as large as fits
			u := Update{Attrs: streamAttrs[rng.IntN(len(streamAttrs))], NLRI: prefixes(1 + rng.IntN(40))}
			if r < 3 {
				u.NLRI = prefixes(1100)
				for i := range u.NLRI {
					u.NLRI[i] = netip.PrefixFrom(u.NLRI[i].Addr(), 24).Masked()
				}
				body, err := marshalUpdate(u)
				if err != nil {
					t.Fatal(err)
				}
				if over := headerLen + len(body) - maxMsgLen; over > 0 {
					u.NLRI = u.NLRI[:len(u.NLRI)-(over+3)/4]
				}
			}
			m = u
		case r < 12:
			m = Update{Withdrawn: prefixes(1 + rng.IntN(30))}
		case r < 14:
			m = Update{Withdrawn: prefixes(1 + rng.IntN(5)), Attrs: streamAttrs[0], NLRI: prefixes(1 + rng.IntN(5))}
		case r < 17:
			m = Keepalive{}
		case r == 17: // a malformed frame
			buf := mustMarshal(t, Update{Withdrawn: prefixes(3)})
			switch rng.IntN(3) {
			case 0:
				buf[rng.IntN(markerLen)] = 0
			case 1:
				buf[16], buf[17] = 0x10, 0x01 // 4 097
			default:
				buf[headerLen+1] = 0xFF // withdrawn length overruns the body
			}
			stream = append(stream, buf...)
			continue
		case r == 18:
			m = Notification{Code: NotifCease}
		default:
			m = peerOpen
		}
		stream = append(stream, mustMarshal(t, m)...)
	}
	return stream
}

// readStreamOracle is what a session should deliver from stream: every
// UPDATE ReadMessage decodes from it, up to the first error or the first
// message that ends the session (NOTIFICATION, OPEN).
func readStreamOracle(stream []byte) []Update {
	var out []Update
	r := bytes.NewReader(stream)
	for {
		m, err := ReadMessage(r)
		if err != nil {
			return out
		}
		switch m := m.(type) {
		case Update:
			out = append(out, m)
		case Keepalive:
		default:
			return out
		}
	}
}

// FuzzReadStream is a differential fuzz of the session's buffered
// framing against ReadMessage. The stream is a seeded run of messages
// (streamFor) with the fuzzer's bytes after it; it is written through a
// net.Pipe into a Session in seeded chunks of 1 byte up to the whole
// rest of the stream. The UPDATEs the session delivers must equal
// ReadMessage over the concatenation, in order, and must still equal it
// once the read buffer has been overwritten: nothing decoded aliases it.
func FuzzReadStream(f *testing.F) {
	for seed := range uint64(16) {
		f.Add(seed, seed, []byte(nil))
	}
	f.Add(uint64(3), uint64(0), mustMarshal(f, Keepalive{}))
	f.Add(uint64(5), uint64(7), mustMarshal(f, Update{Withdrawn: []netip.Prefix{prefix("10.0.0.0/8")}})[:25])
	f.Fuzz(func(t *testing.T, seed, chunkSeed uint64, tail []byte) {
		stream := append(streamFor(t, seed), tail...)
		want := readStreamOracle(stream)

		local, remote := net.Pipe()
		defer remote.Close()
		s := &Session{
			conn:     local,
			br:       bufio.NewReaderSize(local, maxMsgLen),
			cfg:      SessionConfig{LocalAS: 65000, LocalID: addr("10.0.0.1")},
			holdTime: time.Minute,
			updates:  make(chan Update, 1024),
			closed:   make(chan struct{}),
		}
		s.setState(StateEstablished)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.readLoop()
		}()
		go io.Copy(io.Discard, remote) // the NOTIFICATIONs the session sends
		go func() {
			rng := rand.New(rand.NewPCG(chunkSeed, 0xC4))
			for rest := stream; len(rest) > 0; {
				n := 1 + rng.IntN(len(rest))
				if rng.IntN(2) == 0 {
					n = min(n, 1+rng.IntN(16))
				}
				if _, err := remote.Write(rest[:n]); err != nil {
					return // the session ended on a bad frame
				}
				rest = rest[n:]
			}
			remote.Close()
		}()

		var got []Update
		for u := range s.Updates() {
			got = append(got, u)
		}
		<-done
		check := func(when string) {
			if len(got) != len(want) {
				t.Fatalf("%s: session delivered %d UPDATEs, ReadMessage decodes %d", when, len(got), len(want))
			}
			for i := range want {
				if !sameUpdate(got[i], want[i]) {
					t.Fatalf("%s: UPDATE %d of %d\n got %+v\nwant %+v", when, i, len(want), got[i], want[i])
				}
			}
		}
		check("as delivered")
		s.br.Reset(bytes.NewReader(bytes.Repeat([]byte{0xA5}, maxMsgLen)))
		if _, err := s.br.Peek(maxMsgLen); err != nil {
			t.Fatal(err)
		}
		check("after the read buffer is overwritten")
	})
}
