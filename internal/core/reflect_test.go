package core

import (
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vns/internal/bgp"
)

// reflectorID is the router ID (and so the cluster ID) wireRR gives the
// reflector.
var reflectorID = addr("10.0.0.100")

// sameUpdate compares two UPDATEs field by field, as decoded.
func sameUpdate(a, b bgp.Update) bool {
	return slices.Equal(a.Withdrawn, b.Withdrawn) && slices.Equal(a.NLRI, b.NLRI) && a.Attrs.Equal(b.Attrs)
}

// expectStream reads len(want) UPDATEs from sess and requires each to
// equal its reference, in order.
func expectStream(t *testing.T, name string, sess *bgp.Session, want []bgp.Update) {
	t.Helper()
	for i, w := range want {
		select {
		case u, ok := <-sess.Updates():
			if !ok {
				t.Fatalf("%s: session closed after %d of %d messages", name, i, len(want))
			}
			if !sameUpdate(u, w) {
				t.Fatalf("%s: message %d of %d\n got %+v\nwant %+v", name, i, len(want), u, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: message %d of %d never arrived", name, i, len(want))
		}
	}
}

// refReflector is today's per-message reflection rule, written out for
// one announcing peer: the Loc-RIB holds at most that peer's route per
// prefix, so a prefix's best path changes exactly when its reflected
// attributes appear, disappear or differ.
type refReflector struct {
	rr   *GeoRR
	from netip.Addr
	rib  map[netip.Prefix]bgp.Attrs
}

// reflected is the route as every other peer receives it: the geo
// LOCAL_PREF, ORIGINATOR_ID the announcer, CLUSTER_LIST the reflector.
func (r *refReflector) reflected(attrs bgp.Attrs, p netip.Prefix) bgp.Attrs {
	out := attrs.Clone()
	if lp := r.rr.Assign(r.from, p).LocalPref; lp > 0 {
		out.LocalPref, out.HasLocalPref = lp, true
	}
	out.OriginatorID = r.from
	out.ClusterList = []netip.Addr{reflectorID}
	return out
}

// update returns what one received UPDATE makes the reflector send: a
// single-prefix withdrawal per withdrawn prefix whose best path changed
// (an announcement of it in the same UPDATE wins over the withdrawal),
// then a single-prefix announcement per NLRI.
func (r *refReflector) update(u bgp.Update) []bgp.Update {
	next := make(map[netip.Prefix]bgp.Attrs, len(r.rib))
	for p, a := range r.rib {
		next[p] = a
	}
	for _, w := range u.Withdrawn {
		delete(next, w)
	}
	for _, p := range u.NLRI {
		next[p] = r.reflected(u.Attrs, p)
	}
	var out []bgp.Update
	for _, w := range u.Withdrawn {
		old, had := r.rib[w]
		now, has := next[w]
		if had != has || !old.Equal(now) {
			out = append(out, bgp.Update{Withdrawn: []netip.Prefix{w}})
		}
	}
	for _, p := range u.NLRI {
		out = append(out, bgp.Update{Attrs: next[p], NLRI: []netip.Prefix{p}})
	}
	r.rib = next
	return out
}

// purge is what the announcer's session ending makes the reflector send:
// its prefixes in address order, packed into withdrawals.
func (r *refReflector) purge() []bgp.Update {
	var gone []netip.Prefix
	for p := range r.rib {
		gone = append(gone, p)
	}
	slices.SortFunc(gone, func(a, b netip.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return a.Bits() - b.Bits()
	})
	return bgp.PackWithdrawals(gone)
}

// seededUpdates is a seeded sequence of announcements (1–6 prefixes),
// withdrawals (1–4, some of routes never announced) and mixed UPDATEs
// (whose announcements may re-announce a prefix they also withdraw)
// over /24s in the Amsterdam, New York and Hong Kong blocks and one
// block GeoIP does not know, with three attribute sets.
func seededUpdates(seed uint64, n int) []bgp.Update {
	rng := rand.New(rand.NewPCG(seed, 0x5EED))
	var pool []netip.Prefix
	for i := 0; i < 24; i++ {
		block := []byte{1, 2, 3, 9}[i%4]
		pool = append(pool, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, block, byte(i), 0}), 24))
	}
	variants := []bgp.Attrs{
		{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}}, NextHop: addr("192.0.2.1")},
		{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{100, 300, 400}}}, NextHop: addr("192.0.2.1"),
			Communities: []bgp.Community{100<<16 | 7}},
		{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}}, NextHop: addr("192.0.2.1"), MED: 50, HasMED: true},
	}
	pick := func(k int) []netip.Prefix {
		var out []netip.Prefix
		for _, i := range rng.Perm(len(pool))[:k] {
			out = append(out, pool[i])
		}
		return out
	}
	var us []bgp.Update
	for len(us) < n {
		attrs := variants[rng.IntN(len(variants))]
		switch rng.IntN(3) {
		case 0:
			us = append(us, bgp.Update{Attrs: attrs, NLRI: pick(1 + rng.IntN(6))})
		case 1:
			us = append(us, bgp.Update{Withdrawn: pick(1 + rng.IntN(4))})
		default:
			us = append(us, bgp.Update{Withdrawn: pick(1 + rng.IntN(3)), Attrs: attrs, NLRI: pick(1 + rng.IntN(4))})
		}
	}
	return us
}

// sameStream requires got to equal want message by message.
func sameStream(t *testing.T, name string, got, want []bgp.Update) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, want %d\n got %+v\nwant %+v", name, len(got), len(want), got, want)
	}
	for i := range want {
		if !sameUpdate(got[i], want[i]) {
			t.Fatalf("%s: message %d of %d\n got %+v\nwant %+v", name, i, len(want), got[i], want[i])
		}
	}
}

// streamScript is one seed's exchange: AMS sends a seeded UPDATE
// sequence, HK then announces and later retracts a barrier route, and
// AMS's session ends between the two.
type streamScript struct {
	seq              []bgp.Update
	barrier, retract bgp.Update
}

func newStreamScript(seed uint64) streamScript {
	barrier := bgp.Update{
		Attrs: bgp.Attrs{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{300}}}, NextHop: addr("192.0.2.3")},
		NLRI:  []netip.Prefix{prefix("10.3.250.0/24")},
	}
	return streamScript{seq: seededUpdates(seed, 30), barrier: barrier, retract: bgp.Update{Withdrawn: barrier.NLRI}}
}

// TestRRServerWireStreamMatchesReference pins the reflector's output
// stream message by message against the reference rule: gated
// single-prefix withdrawals, then one single-prefix announcement per
// NLRI with its geo LOCAL_PREF and RFC 4456 attributes, and, when a
// peer's session ends, its routes' packed withdrawals. Each seed checks
// Reflector.Ingest and Purge directly; seed 1 also runs the exchange
// over TCP, where every other peer must decode exactly what Ingest and
// Purge returned, in order, and the sender receives none of its own.
// The wire half reads only decoded messages, so it holds whatever the
// syscall boundaries are.
func TestRRServerWireStreamMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := newStreamScript(seed)
			ref := testReflector(t)
			amsRef := &refReflector{rr: ref.rr, from: amsID}
			hkRef := &refReflector{rr: ref.rr, from: hkID}
			for i, u := range sc.seq {
				sameStream(t, fmt.Sprintf("update %d", i), ref.Ingest(amsID, u), amsRef.update(u))
			}
			sameStream(t, "barrier", ref.Ingest(hkID, sc.barrier), hkRef.update(sc.barrier))
			sameStream(t, "purge", ref.Purge(amsID), amsRef.purge())
			sameStream(t, "retract", ref.Ingest(hkID, sc.retract), hkRef.update(sc.retract))
			if seed == 1 {
				wireStreamMatchesIngest(t, sc)
			}
		})
	}
}

// wireStreamMatchesIngest plays sc over TCP and requires every peer to
// decode exactly what a Reflector over the server's GeoRR returns for
// the same calls.
func wireStreamMatchesIngest(t *testing.T, sc streamScript) {
	srv := wireRR(t)
	src := dialEgress(t, srv, "10.0.1.1")   // AMS, the announcer
	hk := dialEgress(t, srv, "10.0.3.1")    // HK, sends the barriers
	ash := dialEgress(t, srv, "10.0.2.1")   // ASH
	other := dialEgress(t, srv, "10.0.4.1") // not a GeoRR egress
	waitFor(t, "peers", func() bool { return srv.NumPeers() == 4 })
	receivers := map[string]*bgp.Session{"HK": hk, "ASH": ash, "other": other}
	names := []string{"ASH", "HK", "other"}

	ref := NewReflector(srv.GeoRR(), reflectorID, nil, nil)
	var want []bgp.Update
	for _, u := range sc.seq {
		if err := src.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
		want = append(want, ref.Ingest(amsID, u)...)
	}
	for _, name := range names {
		expectStream(t, name, receivers[name], want)
	}

	// The barrier from HK must be the first thing the sender ever
	// receives, so nothing of its own stream came back.
	if err := hk.SendUpdate(sc.barrier); err != nil {
		t.Fatal(err)
	}
	barrierOut := ref.Ingest(hkID, sc.barrier)
	expectStream(t, "sender", src, barrierOut)
	expectStream(t, "ASH", ash, barrierOut)
	expectStream(t, "other", other, barrierOut)

	// The sender's session ends: its routes' withdrawals, packed.
	purge := ref.Purge(amsID)
	src.Close()
	for _, name := range names {
		expectStream(t, name, receivers[name], purge)
	}
	// And nothing after them: the next message is HK's withdrawal of
	// the barrier.
	if err := hk.SendUpdate(sc.retract); err != nil {
		t.Fatal(err)
	}
	retractOut := ref.Ingest(hkID, sc.retract)
	expectStream(t, "ASH", ash, retractOut)
	expectStream(t, "other", other, retractOut)
}

// countingListener hands out conns that count their Write calls into
// one shared counter.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, writes: &l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingRR is wireRR over a listener that counts the reflector's
// writes on every session.
func countingRR(tb testing.TB) (*RRServer, *countingListener) {
	tb.Helper()
	rr, _ := testRR(tb)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	srv := newRRServer(ln, rr, 65000, reflectorID)
	tb.Cleanup(func() { srv.Close() })
	return srv, ln
}

// dialPeers dials n egress sessions, 10.0.1.1 … 10.0.n.1, and waits
// until the reflector has all of them.
func dialPeers(tb testing.TB, srv *RRServer, n int) []*bgp.Session {
	tb.Helper()
	sessions := make([]*bgp.Session, n)
	for i := range sessions {
		sess, err := DialRR(srv.Addr(), 65000, netip.AddrFrom4([4]byte{10, 0, byte(i + 1), 1}))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { sess.Close() })
		sessions[i] = sess
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.NumPeers() != n {
		if time.Now().After(deadline) {
			tb.Fatalf("%d of %d peers established", srv.NumPeers(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return sessions
}

// slash24s returns n consecutive /24s from 10.16.0.0.
func slash24s(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(16 + i/256), byte(i), 0}), 24)
	}
	return out
}

func announce(prefixes []netip.Prefix) bgp.Update {
	return bgp.Update{
		Attrs: bgp.Attrs{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}}, NextHop: addr("192.0.2.1")},
		NLRI:  prefixes,
	}
}

// TestRRServerReflectWritesOncePerPeer: reflecting one k-prefix UPDATE
// to n−1 peers costs n−1 writes, not k·(n−1); a purge whose withdrawals
// take two packed messages costs n−1 writes too.
func TestRRServerReflectWritesOncePerPeer(t *testing.T) {
	const n, k = 4, 6
	srv, ln := countingRR(t)
	peers := dialPeers(t, srv, n)
	src, others := peers[0], peers[1:]

	// received counts, per peer, the prefixes each message announces or
	// withdraws, read concurrently so no session backs up.
	received := make([]atomic.Int64, len(others))
	for i, sess := range others {
		go func() {
			for u := range sess.Updates() {
				received[i].Add(int64(len(u.NLRI) + len(u.Withdrawn)))
			}
		}()
	}
	waitPrefixes := func(what string, want int64) {
		t.Helper()
		waitFor(t, what, func() bool {
			for i := range received {
				if received[i].Load() < want {
					return false
				}
			}
			return true
		})
	}

	before := ln.writes.Load()
	if err := src.SendUpdate(announce(slash24s(k))); err != nil {
		t.Fatal(err)
	}
	waitPrefixes("reflection", k)
	if got := ln.writes.Load() - before; got != n-1 {
		t.Errorf("one %d-prefix UPDATE to %d peers took %d writes, want %d", k, n-1, got, n-1)
	}

	// 1 100 /24 withdrawals (the k above among them) need two 4 096-byte
	// UPDATEs.
	table := slash24s(1100)
	if msgs := len(bgp.PackWithdrawals(table)); msgs != 2 {
		t.Fatalf("purge packs into %d messages, the test wants 2", msgs)
	}
	for _, half := range [][]netip.Prefix{table[:550], table[550:]} {
		if err := src.SendUpdate(announce(half)); err != nil {
			t.Fatal(err)
		}
	}
	waitPrefixes("table", int64(k+len(table)))
	before = ln.writes.Load()
	src.Close()
	waitPrefixes("purge", int64(k+2*len(table)))
	if got := ln.writes.Load() - before; got != n-1 {
		t.Errorf("a two-message purge to %d peers took %d writes, want %d", n-1, got, n-1)
	}
}

// TestRRServerDrainedRunWritesOncePerPeer: UPDATEs that queue on a
// session while the reflector is busy are reflected as one run, each
// still ingested on its own but all their reflections written to each
// peer at once. The test holds the reflector's lock while a source
// sends N single-prefix UPDATEs: the first waits for the lock, the rest
// queue behind it. Once the lock is released, every observer receives
// all N reflections in send order, and the reflector has made at most
// 2·(n−1) writes: the first UPDATE's, then the run's.
func TestRRServerDrainedRunWritesOncePerPeer(t *testing.T) {
	const n, N = 4, 50
	srv, ln := countingRR(t)
	peers := dialPeers(t, srv, n)
	src := peers[0]
	var obs []*recorder
	for _, sess := range peers[1:] {
		obs = append(obs, record(sess))
	}
	want := slash24s(N)

	srv.mu.Lock()
	queue := srv.peers[addr("10.0.1.1")].Updates() // src, as the reflector holds it
	before := ln.writes.Load()
	for _, p := range want {
		if err := src.SendUpdate(announce([]netip.Prefix{p})); err != nil {
			srv.mu.Unlock()
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(queue) < N-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			srv.mu.Unlock()
			t.Fatalf("%d of %d UPDATEs queued", len(queue), N-1)
		}
	}
	srv.mu.Unlock()

	for i, o := range obs {
		waitFor(t, fmt.Sprintf("the run at observer %d", i), func() bool { return len(o.updates()) >= N })
		got := o.updates()
		if len(got) != N {
			t.Fatalf("observer %d received %d reflections, want %d", i, len(got), N)
		}
		for k, u := range got {
			if !slices.Equal(u.NLRI, want[k:k+1]) || len(u.Withdrawn) != 0 {
				t.Fatalf("observer %d: reflection %d is NLRI %v withdrawn %v, want NLRI %v", i, k, u.NLRI, u.Withdrawn, want[k])
			}
		}
	}
	if got := ln.writes.Load() - before; got > 2*(n-1) {
		t.Errorf("%d queued UPDATEs to %d peers took %d writes, want at most %d", N, n-1, got, 2*(n-1))
	}
}

// BenchmarkRRServerReflect: 22 loopback egress sessions, the size of
// the deployment; one op is one 6-prefix UPDATE from the first,
// finished when its last reflection reaches the last peer the reflector
// writes to. writes/op is the reflector's Write calls per op. lockstep
// sends each UPDATE once the previous one's reflections arrived, so
// every UPDATE is a run of one (21 writes); pipelined sends them back
// to back, so UPDATEs queue and are reflected in runs.
func BenchmarkRRServerReflect(b *testing.B) {
	const n, k = 22, 6
	srv, ln := countingRR(b)
	peers := dialPeers(b, srv, n)
	src, last := peers[0], peers[n-1]
	for _, sess := range peers[1 : n-1] {
		go func() {
			for range sess.Updates() {
			}
		}()
	}
	u := announce(slash24s(k))
	// receive reads m reflections from the last peer.
	receive := func(b *testing.B, m int) {
		for range m {
			if _, ok := <-last.Updates(); !ok {
				b.Fatal("last peer's session closed")
			}
		}
	}

	b.Run("lockstep", func(b *testing.B) {
		b.ReportAllocs()
		before := ln.writes.Load()
		for i := 0; i < b.N; i++ {
			if err := src.SendUpdate(u); err != nil {
				b.Fatal(err)
			}
			receive(b, k)
		}
		b.StopTimer()
		b.ReportMetric(float64(ln.writes.Load()-before)/float64(b.N), "writes/op")
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		before := ln.writes.Load()
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if err := src.SendUpdate(u); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		receive(b, b.N*k)
		if err := <-sent; err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(ln.writes.Load()-before)/float64(b.N), "writes/op")
	})
}
