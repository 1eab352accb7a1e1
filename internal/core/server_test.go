package core

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vns/internal/bgp"
)

func wireRR(t *testing.T) *RRServer {
	t.Helper()
	rr, _ := testRR(t)
	srv, err := NewRRServer("127.0.0.1:0", rr, 65000, addr("10.0.0.100"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialEgress(t *testing.T, srv *RRServer, id string) *bgp.Session {
	t.Helper()
	sess, err := DialRR(srv.Addr(), 65000, addr(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func sendRoute(t *testing.T, sess *bgp.Session, prefixes ...netip.Prefix) {
	t.Helper()
	err := sess.SendUpdate(bgp.Update{
		Attrs: bgp.Attrs{
			ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}},
			NextHop: addr("192.0.2.1"),
		},
		NLRI: prefixes,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// leakCheck fails t if, once its later cleanups have closed the
// reflector and every session, more goroutines are left than it began
// with. Call it first, so its cleanup runs last.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// recorder keeps every UPDATE a session receives, in arrival order,
// until the session ends.
type recorder struct {
	mu  sync.Mutex
	got []bgp.Update
}

func record(sess *bgp.Session) *recorder {
	r := &recorder{}
	go func() {
		for u := range sess.Updates() {
			r.mu.Lock()
			r.got = append(r.got, u)
			r.mu.Unlock()
		}
	}()
	return r
}

func (r *recorder) updates() []bgp.Update {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.got)
}

// announced reports whether p has been announced to the session.
func (r *recorder) announced(p netip.Prefix) bool {
	return slices.ContainsFunc(r.updates(), func(u bgp.Update) bool { return slices.Contains(u.NLRI, p) })
}

// expectPrefixes reads sess's next UPDATE and requires its NLRI and
// withdrawals to be exactly nlri and withdrawn.
func expectPrefixes(t *testing.T, sess *bgp.Session, nlri, withdrawn []netip.Prefix) {
	t.Helper()
	select {
	case u, ok := <-sess.Updates():
		if !ok {
			t.Fatal("session closed")
		}
		if !slices.Equal(u.NLRI, nlri) || !slices.Equal(u.Withdrawn, withdrawn) {
			t.Fatalf("got NLRI %v withdrawn %v, want NLRI %v withdrawn %v", u.NLRI, u.Withdrawn, nlri, withdrawn)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("NLRI %v withdrawn %v never arrived", nlri, withdrawn)
	}
}

// hookListener hands every accepted conn to the test, in accept order,
// as a failConn, and reports when the reflector closes it.
type hookListener struct {
	net.Listener
	conns  chan *failConn
	closed chan struct{}
}

func (l *hookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := &failConn{Conn: c}
	l.conns <- fc
	return fc, nil
}

func (l *hookListener) Close() error {
	err := l.Listener.Close()
	close(l.closed) // RRServer.Close closes it once
	return err
}

// failConn fails every Write once fail is set.
type failConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *failConn) Write(b []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
}

// hookRR is wireRR over a hookListener.
func hookRR(t *testing.T) (*RRServer, *hookListener) {
	t.Helper()
	rr, _ := testRR(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// conns has room for every conn one test accepts, so Accept never blocks.
	ln := &hookListener{Listener: inner, conns: make(chan *failConn, 8), closed: make(chan struct{})}
	srv := newRRServer(ln, rr, 65000, reflectorID)
	t.Cleanup(func() { srv.Close() })
	return srv, ln
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestRRServerPeerReplacement: a second session with the same router ID
// replaces the first, and the first's routes go with it — withdrawn from
// the Loc-RIB and from every other peer.
func TestRRServerPeerReplacement(t *testing.T) {
	leakCheck(t)
	srv := wireRR(t)
	first := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })
	sendRoute(t, first, prefix("10.1.0.0/16"))
	<-hk.Updates()
	waitFor(t, "route", func() bool { return srv.NumRoutes() == 1 })

	dialEgress(t, srv, "10.0.1.1")
	waitFor(t, "replacement", func() bool {
		// Updates() is closed when the session ends.
		select {
		case _, ok := <-first.Updates():
			return !ok
		default:
			return false
		}
	})
	select {
	case u := <-hk.Updates():
		if len(u.Withdrawn) != 1 || u.Withdrawn[0] != prefix("10.1.0.0/16") {
			t.Errorf("expected withdraw of 10.1.0.0/16, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replaced session's route not withdrawn")
	}
	// The purge ran with the replacement, before the withdrawal was sent.
	if n := srv.NumRoutes(); n != 0 {
		t.Errorf("routes = %d after the replacement, want 0", n)
	}
	if srv.NumPeers() != 2 {
		t.Errorf("peers = %d", srv.NumPeers())
	}
}

// TestRRServerPeerReplacementWaitsForFanOut: a replacement's purge
// reaches every other peer after whatever the replaced session had
// reflected, so no peer sees a withdrawal overtaken by the route it
// withdraws. The replacement dials while a burst from the replaced
// session is still being reflected; its sentinel, reflected after the
// purge, marks the end of what each peer is checked on.
func TestRRServerPeerReplacementWaitsForFanOut(t *testing.T) {
	srv := wireRR(t)
	first := dialEgress(t, srv, "10.0.1.1")
	var obs []*recorder
	for _, id := range []string{"10.0.2.1", "10.0.3.1", "10.0.4.1"} {
		obs = append(obs, record(dialEgress(t, srv, id)))
	}
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 4 })
	burst := slash24s(65)
	burst, sentinel := burst[:64], burst[64]
	sendRoute(t, first, burst[0])
	waitFor(t, "first reflection", func() bool { return len(obs[0].updates()) > 0 })
	for _, p := range burst[1:] {
		sendRoute(t, first, p)
	}
	sendRoute(t, dialEgress(t, srv, "10.0.1.1"), sentinel)

	for i, o := range obs {
		waitFor(t, fmt.Sprintf("sentinel at observer %d", i), func() bool { return o.announced(sentinel) })
		withdrawn := make(map[netip.Prefix]bool)
		for _, u := range o.updates() {
			for _, p := range u.NLRI {
				if withdrawn[p] {
					t.Fatalf("observer %d: %v announced after its withdrawal", i, p)
				}
			}
			for _, p := range u.Withdrawn {
				withdrawn[p] = true
			}
		}
		if !withdrawn[burst[0]] {
			t.Errorf("observer %d: the replaced session's routes were not withdrawn before the replacement's", i)
		}
	}
	if n := srv.NumRoutes(); n != 1 {
		t.Errorf("routes = %d after the replacement, want the sentinel alone", n)
	}
}

// TestRRServerSameOrderEveryPeer: every peer receives reflections in the
// order the Loc-RIB applied them. Two sources announce and withdraw the
// same prefixes concurrently, and every observer must receive the same
// sequence. Each source ends with a sentinel: once an observer has both,
// it has everything either source's UPDATEs were reflected as.
func TestRRServerSameOrderEveryPeer(t *testing.T) {
	const rounds = 100
	srv := wireRR(t)
	sources := []*bgp.Session{dialEgress(t, srv, "10.0.1.1"), dialEgress(t, srv, "10.0.2.1")}
	for _, src := range sources {
		record(src) // a source that stops reading would stall its reflections
	}
	var obs []*recorder
	for _, id := range []string{"10.0.3.1", "10.0.4.1", "10.0.5.1", "10.0.6.1"} {
		obs = append(obs, record(dialEgress(t, srv, id)))
	}
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 6 })
	prefixes := slash24s(6)
	prefixes, sentinels := prefixes[:4], prefixes[4:]

	var wg sync.WaitGroup
	errs := make([]error, len(sources))
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for _, p := range prefixes {
					if errs[i] = src.SendUpdate(announce([]netip.Prefix{p})); errs[i] != nil {
						return
					}
				}
				if errs[i] = src.SendUpdate(bgp.Update{Withdrawn: prefixes}); errs[i] != nil {
					return
				}
			}
			errs[i] = src.SendUpdate(announce(sentinels[i : i+1]))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range obs {
		waitFor(t, fmt.Sprintf("sentinels at observer %d", i), func() bool {
			return o.announced(sentinels[0]) && o.announced(sentinels[1])
		})
	}
	want := obs[0].updates()
	for i, o := range obs[1:] {
		got := o.updates()
		for k := range min(len(got), len(want)) {
			if !sameUpdate(got[k], want[k]) {
				t.Fatalf("observer %d diverges from observer 0 at message %d of %d:\n got %+v\nwant %+v", i+1, k, len(want), got[k], want[k])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("observer %d received %d messages, observer 0 %d", i+1, len(got), len(want))
		}
	}
}

// TestRRServerWriteFailureDropsPeer: a reflection the reflector cannot
// write ends that session, as a transport failure does (RFC 4271): the
// peer is dropped and its routes purged, and the other peers keep
// receiving.
func TestRRServerWriteFailureDropsPeer(t *testing.T) {
	leakCheck(t)
	srv, ln := hookRR(t)
	src := dialEgress(t, srv, "10.0.1.1")
	<-ln.conns
	failing := dialEgress(t, srv, "10.0.2.1")
	fc := <-ln.conns
	obs := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 3 })
	sendRoute(t, failing, prefix("10.2.0.0/16"))
	expectPrefixes(t, obs, []netip.Prefix{prefix("10.2.0.0/16")}, nil)

	fc.fail.Store(true)
	sendRoute(t, src, prefix("10.1.0.0/16"))
	waitFor(t, "failing peer dropped", func() bool { return srv.NumPeers() == 2 })
	waitFor(t, "failing peer's session ended", func() bool {
		select {
		case _, ok := <-failing.Updates():
			return !ok
		default:
			return false
		}
	})
	expectPrefixes(t, obs, []netip.Prefix{prefix("10.1.0.0/16")}, nil)
	expectPrefixes(t, obs, nil, []netip.Prefix{prefix("10.2.0.0/16")})
	if srv.Best(prefix("10.2.0.0/16")) != nil {
		t.Error("the dropped peer's route is still in the Loc-RIB")
	}
	sendRoute(t, src, prefix("10.3.0.0/16"))
	expectPrefixes(t, obs, []netip.Prefix{prefix("10.3.0.0/16")}, nil)
}

// TestRRServerCloseDuringHandshake: a session whose handshake completes
// while Close runs is closed at once, so Close returns instead of
// waiting for the remote end to hang up.
func TestRRServerCloseDuringHandshake(t *testing.T) {
	leakCheck(t)
	srv, ln := hookRR(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	<-ln.conns
	waitFor(t, "handshake", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.pending) == 1
	})
	// Holding the server's lock, finish the handshake and start Close:
	// the session cannot register before Close has begun.
	srv.mu.Lock()
	sess, err := bgp.Handshake(conn, bgp.SessionConfig{LocalAS: 65000, LocalID: addr("10.0.1.1")})
	if err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	defer sess.Close()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-ln.closed
	srv.mu.Unlock()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close still blocked 3 s after a handshake completed during it")
	}
}

// TestRRServerCloseDuringSilentHandshake: a connection that never sends
// an OPEN does not hold Close until the handshake's hold timer fires.
func TestRRServerCloseDuringSilentHandshake(t *testing.T) {
	leakCheck(t)
	srv, ln := hookRR(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-ln.conns // accepted: the reflector waits for an OPEN that never comes
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1 s after it began, on a connection that sent nothing")
	}
}

func TestRRServerPurgesDeadPeerRoutes(t *testing.T) {
	leakCheck(t)
	srv := wireRR(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	hk := dialEgress(t, srv, "10.0.3.1")
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 2 })

	sendRoute(t, ams, prefix("10.1.0.0/16"))
	<-hk.Updates()
	waitFor(t, "route", func() bool { return srv.NumRoutes() == 1 })

	// AMS crashes: its route must be withdrawn from the Loc-RIB and the
	// withdrawal propagated to HK.
	ams.Close()
	waitFor(t, "purge", func() bool { return srv.NumRoutes() == 0 })
	select {
	case u := <-hk.Updates():
		if len(u.Withdrawn) != 1 || u.Withdrawn[0] != prefix("10.1.0.0/16") {
			t.Errorf("expected withdraw of 10.1.0.0/16, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withdraw not propagated after peer death")
	}
	if srv.NumPeers() != 1 {
		t.Errorf("peers = %d", srv.NumPeers())
	}
}
