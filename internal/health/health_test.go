package health

import (
	"fmt"
	"strings"
	"testing"

	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

func testFabric() (*netsim.Sim, *vns.L2Fabric) {
	sim := &netsim.Sim{}
	fab := vns.NewL2Fabric(vns.NewNetwork())
	return sim, fab
}

func TestHelloRoundtrip(t *testing.T) {
	h := Hello{
		Discriminator: 10<<16 | 3,
		Seq:           12345,
		State:         StateUp,
		TxIntervalMs:  50,
		Multiplier:    3,
	}
	wire := h.Marshal()
	if len(wire) != HelloSize {
		t.Fatalf("wire size = %d, want %d", len(wire), HelloSize)
	}
	got, err := ParseHello(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip = %+v, want %+v", got, h)
	}
}

func TestParseHelloRejects(t *testing.T) {
	good := Hello{State: StateDown, Multiplier: 3}.Marshal()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:HelloSize-1],
		"oversized": append(append([]byte{}, good...), 0),
		"bad magic": func() []byte { b := append([]byte{}, good...); b[0] = 0; return b }(),
		"bad ver":   func() []byte { b := append([]byte{}, good...); b[2] = 9; return b }(),
		"bad state": func() []byte { b := append([]byte{}, good...); b[3] = 7; return b }(),
	}
	for name, buf := range cases {
		if _, err := ParseHello(buf); err == nil {
			t.Errorf("%s: ParseHello accepted %x", name, buf)
		}
	}
}

func TestMonitorStableWithoutFaults(t *testing.T) {
	sim, fab := testFabric()
	m := NewMonitor(sim, fab, nil)
	var events int
	m.OnEvent(func(Event) { events++ })
	m.Start()
	sim.Run(5)
	m.Stop()
	if events != 0 {
		t.Fatalf("%d spurious events on a healthy fabric", events)
	}
	for _, s := range m.Sessions() {
		if s.State() != StateUp {
			t.Errorf("session %v not up", s)
		}
		if st := s.stats; st.RxHellos == 0 || st.RxBad != 0 {
			t.Errorf("session %v stats = %+v", s, st)
		}
	}
}

func TestDetectionAndRecoveryTiming(t *testing.T) {
	sim, fab := testFabric()
	m := NewMonitor(sim, fab, nil)
	lon, ash := fab.Network().PoP("LON"), fab.Network().PoP("ASH")
	inj := NewInjector(sim, fab, nil)

	const failAt, healAt = 2.0, 3.0
	inj.LinkDownAt(failAt, lon, ash)
	inj.LinkUpAt(healAt, lon, ash)

	var events []Event
	m.OnEvent(func(ev Event) { events = append(events, ev) })
	m.Start()
	sim.Run(6)
	m.Stop()

	if len(events) != 2 {
		t.Fatalf("events = %v, want one down + one up", events)
	}
	down, up := events[0], events[1]
	if down.Up || m.Session(down.A, down.B) != m.Session(lon, ash) {
		t.Fatalf("first event = %+v", down)
	}
	// Detection is bounded by one-way propagation (the last pre-fault
	// hello is still in flight) plus the silence threshold plus one
	// tick granularity.
	prop := fab.Link(lon, ash).PropDelayMs / 1000
	detect := down.At - failAt
	lo := DetectTimeMs / 1000
	hi := prop + (DetectTimeMs+TxIntervalMs)/1000 + 0.02
	if detect < lo || detect > hi {
		t.Fatalf("detection latency = %.3fs, want in [%.3f, %.3f]", detect, lo, hi)
	}
	// Recovery adds the up-hold hysteresis window.
	if !up.Up {
		t.Fatalf("second event = %+v", up)
	}
	rec := up.At - healAt
	recLo := UpHoldMs / 1000
	recHi := recLo + prop + (DetectTimeMs+TxIntervalMs)/1000 + 0.02
	if rec < recLo || rec > recHi {
		t.Fatalf("recovery latency = %.3fs, want in [%.3f, %.3f]", rec, recLo, recHi)
	}
}

func TestFlapSuppression(t *testing.T) {
	sim, fab := testFabric()
	m := NewMonitor(sim, fab, nil)
	sin, syd := fab.Network().PoP("SIN"), fab.Network().PoP("SYD")
	inj := NewInjector(sim, fab, nil)

	// Six down/up cycles, 250 ms down + 250 ms up each: every up window
	// is far shorter than the 1 s up-hold, so the session must ride
	// through the whole episode as one down/up cycle.
	inj.FlapLink(sin, syd, 1.0, 0.5, 6)

	var events []Event
	m.OnEvent(func(ev Event) { events = append(events, ev) })
	m.Start()
	sim.Run(8)
	m.Stop()

	s := m.Session(sin, syd)
	if st := s.stats; st.Downs != 1 || st.Ups != 1 {
		t.Fatalf("flap episode produced %d downs / %d ups, hysteresis broken", st.Downs, st.Ups)
	}
	if len(events) != 2 || events[0].Up || !events[1].Up {
		t.Fatalf("events = %+v, want exactly one down then one up", events)
	}
	if s.State() != StateUp {
		t.Fatalf("session did not recover after flapping stopped")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() ([]Event, SessionStats) {
		sim, fab := testFabric()
		m := NewMonitor(sim, fab, nil)
		lon, ash := fab.Network().PoP("LON"), fab.Network().PoP("ASH")
		inj := NewInjector(sim, fab, nil)
		inj.FlapLink(lon, ash, 1.0, 0.4, 3)
		inj.DelaySpikeAt(0.5, lon, ash, 30, 1.0)
		var events []Event
		m.OnEvent(func(ev Event) { events = append(events, ev) })
		m.Start()
		sim.Run(5)
		return events, m.Session(lon, ash).stats
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", st1, st2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].At != ev2[i].At || ev1[i].Up != ev2[i].Up ||
			ev1[i].A.ID != ev2[i].A.ID || ev1[i].B.ID != ev2[i].B.ID {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
}

// TestRegistry runs one link fault through a monitor and an injector
// built on a telemetry registry and reads the outcome back through their
// handles; the same components built with a nil registry expose no
// handles and still detect (every other test here runs that way).
func TestRegistry(t *testing.T) {
	sim, fab := testFabric()
	reg := telemetry.New()
	m := NewMonitor(sim, fab, reg)
	lon, ash := fab.Network().PoP("LON"), fab.Network().PoP("ASH")
	inj := NewInjector(sim, fab, reg)
	inj.LinkDownAt(2, lon, ash)
	inj.LinkUpAt(3, lon, ash)
	m.Start()
	sim.Run(6)
	m.Stop()

	met := m.Metrics()
	if tx, rx := met.HellosTx.Value(), met.HellosRx.Value(); tx == 0 || rx == 0 || rx >= tx {
		t.Errorf("hellos tx=%d rx=%d, want 0 < rx < tx (the outage drops some)", tx, rx)
	}
	if d, u := met.SessionDowns.Value(), met.SessionUps.Value(); d != 1 || u != 1 {
		t.Errorf("session downs=%d ups=%d, want 1 and 1", d, u)
	}
	if g := met.SessionsDown.Value(); g != 0 {
		t.Errorf("sessions down = %g after recovery", g)
	}
	if down, up := inj.linkDown.Value(), inj.linkUp.Value(); down != 1 || up != 1 {
		t.Errorf("injected faults down=%d up=%d, want 1 and 1", down, up)
	}
	if NewMonitor(sim, fab, nil).Metrics() != nil {
		t.Error("a monitor built without a registry exposes handles")
	}
}

// TestRegistryTelemetryExposition checks that the health families
// surface in the registry's exposition under their snake_case names.
func TestRegistryTelemetryExposition(t *testing.T) {
	sim, fab := testFabric()
	tel := telemetry.New()
	m := NewMonitor(sim, fab, tel)
	m.Start()
	sim.Run(1)
	m.Stop()
	out := tel.Render()
	for _, want := range []string{
		fmt.Sprintf("health_hellos_tx %d", m.Metrics().HellosTx.Value()),
		"health_sessions_down 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry render missing %q:\n%s", want, out)
		}
	}
}
