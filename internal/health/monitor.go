package health

import (
	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// Event is a liveness transition on one monitored link, delivered to
// subscribers (the failover controller) at the simulated time the
// detector fired.
type Event struct {
	A, B *vns.PoP
	Up   bool
	// At is the simulated detection time.
	At netsim.Time
}

// Monitor runs one LinkSession per L2 adjacency of the fabric. Every
// TxInterval it transmits hellos in both directions over the shared
// data-plane links — so hellos experience the same admin-down state,
// loss, and queueing as traffic — and runs each session's silence
// detector. State transitions fan out to OnEvent subscribers.
type Monitor struct {
	sim *netsim.Sim
	fab *vns.L2Fabric
	met *MonitorMetrics // nil when uninstrumented

	sessions []*LinkSession
	paths    [][2]*netsim.Path // per session, per direction
	byKey    map[[2]int]*LinkSession

	onEvent []func(Event)
	running bool
}

// MonitorMetrics are the monitor's pre-resolved telemetry handles: the
// hello paths run every TxInterval for every session, so they pay one
// atomic add instead of a name lookup.
type MonitorMetrics struct {
	HellosTx, HellosRx       *telemetry.Counter
	SessionUps, SessionDowns *telemetry.Counter
	SessionsDown             *telemetry.Gauge
}

// NewMonitor builds a session for every L2 adjacency, registering its
// metric families in reg; a nil reg leaves it uninstrumented.
func NewMonitor(sim *netsim.Sim, fab *vns.L2Fabric, reg *telemetry.Registry) *Monitor {
	m := &Monitor{
		sim:   sim,
		fab:   fab,
		byKey: make(map[[2]int]*LinkSession),
	}
	if reg != nil {
		m.met = &MonitorMetrics{
			HellosTx:     reg.Counter("health_hellos_tx", "liveness hellos transmitted"),
			HellosRx:     reg.Counter("health_hellos_rx", "liveness hellos received and parsed"),
			SessionUps:   reg.Counter("health_session_ups", "liveness sessions declared up"),
			SessionDowns: reg.Counter("health_session_downs", "liveness sessions declared down"),
			SessionsDown: reg.Gauge("health_sessions_down", "liveness sessions currently down"),
		}
	}
	for _, l := range fab.Network().L2Links() {
		a, b := l[0], l[1]
		s := newLinkSession(a, b, sim.Now())
		m.sessions = append(m.sessions, s)
		m.paths = append(m.paths, [2]*netsim.Path{
			netsim.NewPath(fab.Link(a, b)),
			netsim.NewPath(fab.Link(b, a)),
		})
		m.byKey[[2]int{a.ID, b.ID}] = s
	}
	return m
}

// Metrics returns the monitor's telemetry handles, nil when it was built
// without a registry.
func (m *Monitor) Metrics() *MonitorMetrics { return m.met }

// Sessions returns every session in L2 specification order.
func (m *Monitor) Sessions() []*LinkSession { return m.sessions }

// Session returns the session monitoring the link between two adjacent
// PoPs, or nil.
func (m *Monitor) Session(a, b *vns.PoP) *LinkSession {
	if s, ok := m.byKey[[2]int{a.ID, b.ID}]; ok {
		return s
	}
	return m.byKey[[2]int{b.ID, a.ID}]
}

// DownSessions counts sessions currently in StateDown.
func (m *Monitor) DownSessions() int {
	n := 0
	for _, s := range m.sessions {
		if s.State() == StateDown {
			n++
		}
	}
	return n
}

// OnEvent subscribes fn to liveness transitions. Callbacks run
// synchronously inside the simulator's tick event, so subscribers see
// the topology exactly as it was at detection time.
func (m *Monitor) OnEvent(fn func(Event)) { m.onEvent = append(m.onEvent, fn) }

// Start begins hello transmission and detection. The caller drives the
// simulator; ticks self-reschedule every TxInterval until Stop.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	m.sim.Schedule(m.sim.Now(), m.tick)
}

// Stop halts transmission and detection after the current tick.
func (m *Monitor) Stop() { m.running = false }

func (m *Monitor) tick() {
	if !m.running {
		return
	}
	now := m.sim.Now()
	for i, s := range m.sessions {
		// Detection first: a hello sent this tick can't count as
		// received until it has propagated.
		if s.tick(now) {
			up := s.State() == StateUp
			if m.met != nil {
				if up {
					m.met.SessionUps.Inc()
				} else {
					m.met.SessionDowns.Inc()
				}
			}
			for _, fn := range m.onEvent {
				fn(Event{A: s.a, B: s.b, Up: up, At: now})
			}
		}
		for dir := 0; dir < 2; dir++ {
			m.send(s, i, dir)
		}
	}
	if m.met != nil {
		m.met.SessionsDown.Set(float64(m.DownSessions()))
	}
	m.sim.Schedule(now+TxIntervalMs/1000, m.tick)
}

// send transmits one hello for session s in direction dir over the
// shared data-plane link. The wire bytes are round-tripped through the
// codec on delivery, so the parser is on the hot path the fuzzer
// exercises.
func (m *Monitor) send(s *LinkSession, i, dir int) {
	wire := s.nextHello(dir).Marshal()
	if m.met != nil {
		m.met.HellosTx.Inc()
	}
	m.paths[i][dir].Send(m.sim, netsim.Packet{Size: len(wire)},
		func(netsim.Packet) {
			h, err := ParseHello(wire)
			if err != nil {
				s.recordBad()
				return
			}
			s.recordRx(dir, m.sim.Now(), h)
			if m.met != nil {
				m.met.HellosRx.Inc()
			}
		}, nil)
}
