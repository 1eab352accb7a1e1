// Package health adds liveness to the VNS backbone: BFD-lite hello
// sessions over every inter-PoP L2 link, a fault injector that breaks
// the simulated data plane on a schedule, and a failover controller
// that turns detected failures into control-plane reconvergence —
// withdrawing routes from the GeoRR, updating the IGP, and recompiling
// every PoP's FIB through the existing publisher machinery.
//
// The split mirrors a real deployment: faults happen to links
// (packets silently drop), detection happens by missing hellos, and
// only then does routing react. Everything runs inside internal/netsim
// simulated time, so detection latencies and loss windows are exact
// and deterministic. Monitor, Controller and Injector each register
// their metric families on the *telemetry.Registry they are built with
// and hold the handles (nil registry: uninstrumented).
package health

import (
	"encoding/binary"
	"fmt"
)

// State is a liveness session state, carried in hellos so each side
// learns what its peer thinks (BFD's "your state" field).
type State uint8

const (
	// StateDown means the session has detected a failure (or has not
	// come up yet).
	StateDown State = iota
	// StateUp means hellos flow in both directions.
	StateUp
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateUp:
		return "up"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Wire format constants. The packet is fixed-size:
//
//	0      2      3      4        8      12             16        17
//	| magic | ver | state | discrim |  seq  | txIntervalMs | mult |
const (
	helloMagic   = 0xBFD1 // "BFD-lite"
	helloVersion = 1
	// HelloSize is the wire size of one hello in bytes.
	HelloSize = 17
)

// Hello is one liveness packet. Each endpoint of a monitored link
// transmits one per TxInterval; the receiving side's silence detector
// feeds on their arrival times.
type Hello struct {
	// Discriminator identifies the session (sender PoP in the high
	// half, receiver PoP in the low half).
	Discriminator uint32
	// Seq increments per transmitted hello per direction.
	Seq uint32
	// State is the sender's view of the session.
	State State
	// TxIntervalMs advertises the sender's transmit interval.
	TxIntervalMs uint32
	// Multiplier advertises the sender's detect multiplier.
	Multiplier uint8
}

// Marshal encodes the hello into its fixed wire format.
func (h Hello) Marshal() []byte {
	buf := make([]byte, HelloSize)
	binary.BigEndian.PutUint16(buf[0:2], helloMagic)
	buf[2] = helloVersion
	buf[3] = uint8(h.State)
	binary.BigEndian.PutUint32(buf[4:8], h.Discriminator)
	binary.BigEndian.PutUint32(buf[8:12], h.Seq)
	binary.BigEndian.PutUint32(buf[12:16], h.TxIntervalMs)
	buf[16] = h.Multiplier
	return buf
}

// ParseHello decodes one hello, rejecting truncated, oversized,
// wrong-magic, wrong-version, and bad-state packets.
func ParseHello(buf []byte) (Hello, error) {
	if len(buf) != HelloSize {
		return Hello{}, fmt.Errorf("health: hello is %d bytes, want %d", len(buf), HelloSize)
	}
	if m := binary.BigEndian.Uint16(buf[0:2]); m != helloMagic {
		return Hello{}, fmt.Errorf("health: bad magic %#04x", m)
	}
	if buf[2] != helloVersion {
		return Hello{}, fmt.Errorf("health: unsupported version %d", buf[2])
	}
	if buf[3] > uint8(StateUp) {
		return Hello{}, fmt.Errorf("health: bad state %d", buf[3])
	}
	return Hello{
		Discriminator: binary.BigEndian.Uint32(buf[4:8]),
		Seq:           binary.BigEndian.Uint32(buf[8:12]),
		State:         State(buf[3]),
		TxIntervalMs:  binary.BigEndian.Uint32(buf[12:16]),
		Multiplier:    buf[16],
	}, nil
}
