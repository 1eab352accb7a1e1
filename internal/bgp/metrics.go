package bgp

import (
	"strings"

	"vns/internal/telemetry"
)

// Metrics holds pre-resolved telemetry handles for the BGP layer, so
// the session hot paths (message read/write loops) pay one atomic add
// per event with no name or label resolution. A nil *Metrics is a
// no-op, which is how uninstrumented sessions run.
type Metrics struct {
	msgsIn      [MsgKeepalive + 1]*telemetry.Counter // indexed by MessageType
	msgsOut     [MsgKeepalive + 1]*telemetry.Counter
	transitions [StateEstablished + 1]*telemetry.Counter // indexed by State
	established *telemetry.Gauge
}

// NewMetrics registers the BGP metric families in reg and pre-resolves
// every label the session layer emits. Returns nil (a no-op collector)
// when reg is nil.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{}
	in := reg.CounterVec("bgp_messages_in_total", "BGP messages received, by type", "type")
	out := reg.CounterVec("bgp_messages_out_total", "BGP messages sent, by type", "type")
	for t := MsgOpen; t <= MsgKeepalive; t++ {
		lbl := strings.ToLower(t.String())
		m.msgsIn[t] = in.With(lbl)
		m.msgsOut[t] = out.With(lbl)
	}
	tr := reg.CounterVec("bgp_transitions_total", "BGP FSM transitions, by state entered", "state")
	for st := StateIdle; st <= StateEstablished; st++ {
		m.transitions[st] = tr.With(strings.ToLower(st.String()))
	}
	m.established = reg.Gauge("bgp_sessions_established", "sessions currently in the Established state")
	return m
}

func (m *Metrics) msgIn(t MessageType) {
	if m == nil || int(t) >= len(m.msgsIn) || m.msgsIn[t] == nil {
		return
	}
	m.msgsIn[t].Inc()
}

func (m *Metrics) msgsSent(t MessageType, n int) {
	if m == nil || int(t) >= len(m.msgsOut) || m.msgsOut[t] == nil {
		return
	}
	m.msgsOut[t].Add(uint64(n))
}

func (m *Metrics) transition(st State) {
	if m == nil || st < 0 || int(st) >= len(m.transitions) {
		return
	}
	m.transitions[st].Inc()
}

func (m *Metrics) establishedDelta(d float64) {
	if m == nil {
		return
	}
	m.established.Add(d)
}
