package health

import (
	"fmt"

	"vns/internal/netsim"
	"vns/internal/vns"
)

// The liveness protocol: 50 ms hellos with detect multiplier 3 detect a
// hard failure within 200 ms of simulated time on any link — fast enough
// that a video call survives with a sub-second glitch.
const (
	// TxIntervalMs is the hello transmit interval per direction.
	TxIntervalMs = 50.0
	// Multiplier is the detect multiplier: a direction silent for
	// longer than DetectTimeMs downs the session.
	Multiplier = 3
	// DetectTimeMs is the silence threshold that downs a session.
	DetectTimeMs = TxIntervalMs * Multiplier
	// UpHoldMs is the up hysteresis: after a failure, hellos must flow
	// uninterrupted in both directions for this long before the session
	// is declared up again. A link flapping faster than UpHoldMs stays
	// down, so routing churns at most once per flap episode.
	UpHoldMs = 1000.0
)

// SessionStats snapshots one session's counters.
type SessionStats struct {
	// RxHellos counts hellos received across both directions; RxBad
	// counts packets that failed to parse.
	RxHellos, RxBad uint64
	// Downs and Ups count state transitions.
	Downs, Ups uint64
}

// LinkSession is the BFD-lite session for one L2 adjacency. It tracks
// hello arrivals independently for the two directions and declares the
// link down when either side goes silent past the detect time, with
// up-hold hysteresis on recovery. The Monitor owns transmission and
// tick scheduling; the session is pure protocol state.
type LinkSession struct {
	a, b *vns.PoP

	state      State
	lastChange netsim.Time

	// Per direction (0 = a→b, 1 = b→a).
	seq    [2]uint32      // next transmit sequence number
	lastRx [2]netsim.Time // most recent hello arrival
	streak [2]netsim.Time // start of the current uninterrupted rx run

	stats SessionStats
}

func newLinkSession(a, b *vns.PoP, now netsim.Time) *LinkSession {
	s := &LinkSession{a: a, b: b, state: StateUp, lastChange: now}
	// Provisioned links start up; seed the silence detectors with "now"
	// so a link that is dead from the start is still detected one
	// detect time later.
	for d := range s.lastRx {
		s.lastRx[d] = now
		s.streak[d] = now
	}
	return s
}

// Ends returns the two PoPs the session monitors.
func (s *LinkSession) Ends() (a, b *vns.PoP) { return s.a, s.b }

// State returns the session's current state.
func (s *LinkSession) State() State { return s.state }

// LastChange returns the simulated time of the last state transition.
func (s *LinkSession) LastChange() netsim.Time { return s.lastChange }

func (s *LinkSession) String() string {
	return fmt.Sprintf("%s-%s %v", s.a.Code, s.b.Code, s.state)
}

// nextHello builds the hello to transmit in direction dir.
func (s *LinkSession) nextHello(dir int) Hello {
	from, to := s.a, s.b
	if dir == 1 {
		from, to = s.b, s.a
	}
	h := Hello{
		Discriminator: uint32(from.ID)<<16 | uint32(to.ID),
		Seq:           s.seq[dir],
		State:         s.state,
		TxIntervalMs:  TxIntervalMs,
		Multiplier:    Multiplier,
	}
	s.seq[dir]++
	return h
}

// recordRx notes a hello arrival in direction dir at simulated time
// now. An arrival after a silence gap restarts the direction's
// uninterrupted-run clock, which feeds the up-hold hysteresis.
func (s *LinkSession) recordRx(dir int, now netsim.Time, h Hello) {
	s.stats.RxHellos++
	if now-s.lastRx[dir] > DetectTimeMs/1000 {
		s.streak[dir] = now
	}
	s.lastRx[dir] = now
}

// recordBad notes an unparseable packet on the session's link.
func (s *LinkSession) recordBad() { s.stats.RxBad++ }

// tick runs the detection logic at simulated time now and reports
// whether the session changed state.
func (s *LinkSession) tick(now netsim.Time) bool {
	const detectSec = DetectTimeMs / 1000
	switch s.state {
	case StateUp:
		for d := range s.lastRx {
			if now-s.lastRx[d] > detectSec {
				s.state = StateDown
				s.lastChange = now
				s.stats.Downs++
				return true
			}
		}
	case StateDown:
		const holdSec = UpHoldMs / 1000
		for d := range s.lastRx {
			if now-s.lastRx[d] > detectSec || now-s.streak[d] < holdSec {
				return false
			}
		}
		s.state = StateUp
		s.lastChange = now
		s.stats.Ups++
		return true
	}
	return false
}
