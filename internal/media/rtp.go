// Package media implements the media plane of the reproduction: an RTP
// packet codec and jitter estimator (RFC 3550), synthetic HD video
// conference traces (720p/1080p), stream senders/receivers that measure
// loss and jitter the way the paper's instrumented clients do (including
// the 5-second-slot loss accounting of Figure 10), and a SIP-lite echo
// signaling protocol for the wire-level examples.
package media

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RTPHeaderLen is the fixed RTP header size without CSRCs.
const RTPHeaderLen = 12

// RTPVersion is the protocol version encoded in every packet.
const RTPVersion = 2

// ErrRTPMalformed reports an undecodable RTP packet.
var ErrRTPMalformed = errors.New("media: malformed RTP packet")

// RTPPacket is a parsed RTP packet (RFC 3550 §5.1). CSRC lists,
// padding, and header extensions are not used by the video clients and
// are rejected on receive.
type RTPPacket struct {
	Marker      bool   // set on the last packet of a video frame
	PayloadType uint8  // 7 bits
	Seq         uint16 // sequence number
	Timestamp   uint32 // media timestamp (90 kHz clock for video)
	SSRC        uint32 // stream source identifier
	Payload     []byte
}

// Marshal encodes the packet.
func (p *RTPPacket) Marshal() ([]byte, error) {
	if p.PayloadType > 0x7F {
		return nil, fmt.Errorf("%w: payload type %d", ErrRTPMalformed, p.PayloadType)
	}
	buf := make([]byte, RTPHeaderLen+len(p.Payload))
	buf[0] = RTPVersion << 6
	b1 := p.PayloadType
	if p.Marker {
		b1 |= 0x80
	}
	buf[1] = b1
	binary.BigEndian.PutUint16(buf[2:4], p.Seq)
	binary.BigEndian.PutUint32(buf[4:8], p.Timestamp)
	binary.BigEndian.PutUint32(buf[8:12], p.SSRC)
	copy(buf[RTPHeaderLen:], p.Payload)
	return buf, nil
}

// UnmarshalRTP decodes an RTP packet. The payload aliases buf.
func UnmarshalRTP(buf []byte) (RTPPacket, error) {
	if len(buf) < RTPHeaderLen {
		return RTPPacket{}, fmt.Errorf("%w: %d bytes", ErrRTPMalformed, len(buf))
	}
	if v := buf[0] >> 6; v != RTPVersion {
		return RTPPacket{}, fmt.Errorf("%w: version %d", ErrRTPMalformed, v)
	}
	if buf[0]&0x3F != 0 {
		// Padding, extension, or CSRC count set: not produced by our
		// clients.
		return RTPPacket{}, fmt.Errorf("%w: unsupported header fields", ErrRTPMalformed)
	}
	return RTPPacket{
		Marker:      buf[1]&0x80 != 0,
		PayloadType: buf[1] & 0x7F,
		Seq:         binary.BigEndian.Uint16(buf[2:4]),
		Timestamp:   binary.BigEndian.Uint32(buf[4:8]),
		SSRC:        binary.BigEndian.Uint32(buf[8:12]),
		Payload:     buf[RTPHeaderLen:],
	}, nil
}

// JitterEstimator implements the interarrival jitter estimator of
// RFC 3550 §6.4.1 / appendix A.8, in milliseconds.
type JitterEstimator struct {
	initialized bool
	lastTransit float64 // arrival - media time, ms
	jitterMs    float64
	maxJitterMs float64
}

// Observe records a packet with the given media timestamp (in ms of
// stream time) arriving at arrivalMs (in ms of wall time).
func (j *JitterEstimator) Observe(mediaMs, arrivalMs float64) {
	transit := arrivalMs - mediaMs
	if !j.initialized {
		j.initialized = true
		j.lastTransit = transit
		return
	}
	d := transit - j.lastTransit
	j.lastTransit = transit
	if d < 0 {
		d = -d
	}
	j.jitterMs += (d - j.jitterMs) / 16
	if j.jitterMs > j.maxJitterMs {
		j.maxJitterMs = j.jitterMs
	}
}

// Jitter returns the current smoothed jitter estimate in milliseconds.
func (j *JitterEstimator) Jitter() float64 { return j.jitterMs }

// Max returns the maximum smoothed estimate observed.
func (j *JitterEstimator) Max() float64 { return j.maxJitterMs }
