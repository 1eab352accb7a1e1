package netsim

import (
	"math"
	"testing"

	"vns/internal/loss"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("now = %v", s.Now())
	}
}

func TestEventTieBreakIsFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var s Sim
	s.Schedule(5, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past should panic")
		}
	}()
	s.Schedule(1, func() {})
}

func TestRunUntil(t *testing.T) {
	var s Sim
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(10, func() { fired++ })
	s.Run(5)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 5 {
		t.Errorf("now = %v, want 5 (clamped)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run(20)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	var s Sim
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.After(2, func() { times = append(times, s.Now()) })
	})
	s.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestPathDelivery(t *testing.T) {
	var s Sim
	l1 := NewLink("a", 10, 0, nil, nil)
	l2 := NewLink("b", 25, 0, nil, nil)
	p := NewPath(l1, l2)
	var gotAt Time
	var got Packet
	p.Send(&s, Packet{Seq: 7, Size: 1200}, func(pkt Packet) {
		got = pkt
		gotAt = s.Now()
	}, nil)
	s.RunAll()
	if got.Seq != 7 {
		t.Fatalf("packet not delivered: %+v", got)
	}
	if math.Abs(gotAt-0.035) > 1e-9 {
		t.Errorf("delivered at %v, want 0.035", gotAt)
	}
	if got.SentAt != 0 {
		t.Errorf("SentAt = %v", got.SentAt)
	}
}

func TestPathLoss(t *testing.T) {
	var s Sim
	l := NewLink("lossy", 1, 0, loss.NewUniform(1, loss.NewRNG(1)), nil)
	p := NewPath(l)
	delivered, droppedHop := 0, -1
	p.Send(&s, Packet{}, func(Packet) { delivered++ }, func(hop int) { droppedHop = hop })
	s.RunAll()
	if delivered != 0 || droppedHop != 0 {
		t.Errorf("delivered=%d droppedHop=%d", delivered, droppedHop)
	}
}

func TestSerializationQueueing(t *testing.T) {
	// 1 Mbps link, 1250-byte packets => 10 ms serialization each. Two
	// packets sent back to back: second arrives 10 ms after the first.
	var s Sim
	l := NewLink("slow", 0, 1, nil, nil)
	p := NewPath(l)
	var arrivals []Time
	for i := 0; i < 3; i++ {
		p.Send(&s, Packet{Seq: uint32(i), Size: 1250}, func(Packet) {
			arrivals = append(arrivals, s.Now())
		}, nil)
	}
	s.RunAll()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i, want := range []Time{0.01, 0.02, 0.03} {
		if math.Abs(arrivals[i]-want) > 1e-9 {
			t.Errorf("arrival[%d] = %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestQueueLimitTailDrop(t *testing.T) {
	var s Sim
	l := NewLink("tiny", 0, 1, nil, nil)
	l.QueueLimit = 2
	p := NewPath(l)
	delivered, dropped := 0, 0
	for i := 0; i < 10; i++ {
		p.Send(&s, Packet{Size: 1250}, func(Packet) { delivered++ }, func(int) { dropped++ })
	}
	s.RunAll()
	if dropped == 0 {
		t.Error("expected tail drops")
	}
	if delivered+dropped != 10 {
		t.Errorf("delivered %d + dropped %d != 10", delivered, dropped)
	}
}

func TestJitterAddsVariance(t *testing.T) {
	var s Sim
	rng := loss.NewRNG(5)
	l := NewLink("jittery", 10, 0, nil, rng)
	l.JitterMsSigma = 3
	p := NewPath(l)
	var arrivals []Time
	for i := 0; i < 200; i++ {
		at := Time(i) * 0.02
		s.Schedule(at, func() {
			p.Send(&s, Packet{Size: 1000}, func(Packet) {
				arrivals = append(arrivals, s.Now()-at)
			}, nil)
		})
	}
	s.RunAll()
	if len(arrivals) != 200 {
		t.Fatalf("lost packets on lossless link")
	}
	minD, maxD := arrivals[0], arrivals[0]
	for _, a := range arrivals {
		if a < minD {
			minD = a
		}
		if a > maxD {
			maxD = a
		}
	}
	if maxD == minD {
		t.Error("jitter produced no delay variance")
	}
	if minD < 0.010-1e-9 {
		t.Error("jitter made delay less than propagation")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		var s Sim
		l := NewLink("l", 5, 10, loss.NewUniform(0.1, loss.NewRNG(7)), loss.NewRNG(8))
		l.JitterMsSigma = 2
		p := NewPath(l)
		var arrivals []Time
		for i := 0; i < 100; i++ {
			at := Time(i) * 0.001
			s.Schedule(at, func() {
				p.Send(&s, Packet{Size: 1200}, func(Packet) {
					arrivals = append(arrivals, s.Now())
				}, nil)
			})
		}
		s.RunAll()
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkPathSend(b *testing.B) {
	var s Sim
	l1 := NewLink("a", 10, 100, nil, nil)
	l2 := NewLink("b", 20, 100, nil, nil)
	p := NewPath(l1, l2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Send(&s, Packet{Size: 1200}, nil, nil)
		if i%1000 == 999 {
			s.RunAll()
		}
	}
	s.RunAll()
}

func TestLinkStats(t *testing.T) {
	var s Sim
	l := NewLink("stat", 1, 0, loss.NewUniform(0.5, loss.NewRNG(3)), nil)
	p := NewPath(l)
	for i := 0; i < 1000; i++ {
		p.Send(&s, Packet{Size: 100}, nil, nil)
	}
	s.RunAll()
	st := l.Stats()
	if st.TxPackets+st.Drops != 1000 {
		t.Errorf("tx %d + drops %d != 1000", st.TxPackets, st.Drops)
	}
	if st.Drops < 300 || st.Drops > 700 {
		t.Errorf("drops = %d at 50%% loss", st.Drops)
	}
	if st.DropsLoss != st.Drops || st.DropsQueue != 0 || st.DropsAdmin != 0 {
		t.Errorf("drop causes %+v: all drops should be loss-model drops", st)
	}
	if st.TxBytes != st.TxPackets*100 {
		t.Errorf("bytes = %d, want %d", st.TxBytes, st.TxPackets*100)
	}
}

func TestLinkAdminDown(t *testing.T) {
	var s Sim
	l := NewLink("adm", 5, 0, nil, nil)
	p := NewPath(l)
	delivered, dropped := 0, 0
	send := func() {
		p.Send(&s, Packet{Size: 100}, func(Packet) { delivered++ }, func(int) { dropped++ })
	}
	send()
	s.RunAll()
	if delivered != 1 || dropped != 0 {
		t.Fatalf("up link: delivered=%d dropped=%d", delivered, dropped)
	}

	l.SetAdminDown(true)
	if !l.AdminDown() {
		t.Fatal("AdminDown() false after SetAdminDown(true)")
	}
	for i := 0; i < 10; i++ {
		send()
	}
	s.RunAll()
	if delivered != 1 || dropped != 10 {
		t.Fatalf("down link: delivered=%d dropped=%d", delivered, dropped)
	}
	st := l.Stats()
	if st.DropsAdmin != 10 || st.Drops != 10 {
		t.Errorf("drop stats %+v, want 10 admin drops", st)
	}

	l.SetAdminDown(false)
	send()
	s.RunAll()
	if delivered != 2 {
		t.Errorf("restored link: delivered=%d, want 2", delivered)
	}
}

func TestLinkDelaySpike(t *testing.T) {
	var s Sim
	l := NewLink("spike", 10, 0, nil, nil)
	p := NewPath(l)
	var arrival Time
	p.Send(&s, Packet{Size: 100}, func(Packet) { arrival = s.Now() }, nil)
	s.RunAll()
	if math.Abs(arrival-0.010) > 1e-9 {
		t.Fatalf("baseline arrival %.6f, want 0.010", arrival)
	}

	l.SetExtraDelayMs(25)
	if l.ExtraDelayMs() != 25 {
		t.Fatal("ExtraDelayMs not installed")
	}
	start := s.Now()
	p.Send(&s, Packet{Size: 100}, func(Packet) { arrival = s.Now() }, nil)
	s.RunAll()
	if got := (arrival - start) * 1000; math.Abs(got-35) > 1e-6 {
		t.Errorf("spiked transit %.3f ms, want 35", got)
	}

	l.SetExtraDelayMs(0)
	start = s.Now()
	p.Send(&s, Packet{Size: 100}, func(Packet) { arrival = s.Now() }, nil)
	s.RunAll()
	if got := (arrival - start) * 1000; math.Abs(got-10) > 1e-6 {
		t.Errorf("post-spike transit %.3f ms, want 10", got)
	}
}

func TestLinkQueueDropCause(t *testing.T) {
	var s Sim
	// 1 Mbps, queue limit 1 packet: a burst of large packets tail-drops.
	l := NewLink("q", 1, 1, nil, nil)
	l.QueueLimit = 1
	p := NewPath(l)
	for i := 0; i < 20; i++ {
		p.Send(&s, Packet{Size: 1500}, nil, nil)
	}
	s.RunAll()
	st := l.Stats()
	if st.DropsQueue == 0 {
		t.Fatalf("no queue drops in overload burst: %+v", st)
	}
	if st.Drops != st.DropsQueue || st.DropsLoss != 0 || st.DropsAdmin != 0 {
		t.Errorf("drop attribution %+v, want all queue", st)
	}
}
