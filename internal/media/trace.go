package media

import (
	"fmt"

	"vns/internal/loss"
)

// Definition is the video definition of a conference stream.
type Definition uint8

const (
	// Def720p is 720p30 at ~2.5 Mbit/s.
	Def720p Definition = iota
	// Def1080p is 1080p30 at ~4 Mbit/s.
	Def1080p
)

func (d Definition) String() string {
	if d == Def720p {
		return "720p"
	}
	return "1080p"
}

// BitrateBps returns the nominal encoded bitrate.
func (d Definition) BitrateBps() float64 {
	if d == Def720p {
		return 2.5e6
	}
	return 4.0e6
}

// PacketSpec is one packet of a video trace: its send offset within the
// stream and its wire size.
type PacketSpec struct {
	AtSec      float64
	Size       int
	FrameStart bool
	FrameEnd   bool
	Keyframe   bool
}

// Trace is a packetized synthetic recording of an HD video conference,
// standing in for the paper's professionally captured 720p/1080p
// recordings. The GOP structure (one keyframe then P-frames) and frame
// size variation follow standard H.264 conferencing encodes.
type Trace struct {
	Definition  Definition
	DurationSec float64
	Packets     []PacketSpec
}

// TraceConfig controls trace synthesis.
type TraceConfig struct {
	Definition  Definition
	DurationSec float64 // default 120 s, the paper's session length
	Seed        uint64
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.DurationSec == 0 {
		c.DurationSec = 120
	}
	return c
}

// The video encode: 30 frames/s, one keyframe per 30-frame group of
// pictures, packetized into 1200-byte RTP payloads.
const (
	fps        = 30
	gop        = 30
	mtuPayload = 1200
)

// GenerateTrace synthesizes a packet trace. Frame sizes vary ±20%
// around their nominal size; keyframes are four times P-frame size, as
// in typical conferencing encodes.
func GenerateTrace(cfg TraceConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := loss.NewRNG(cfg.Seed ^ 0x9d5a7f3c21e64b08)

	// Solve for the P-frame size that hits the nominal bitrate given
	// one keyframe of 4x P size per GOP:
	//   bytes/GOP = (4 + (GOP-1)) * P  and  bytes/s = bitrate/8.
	bytesPerSec := cfg.Definition.BitrateBps() / 8
	gopsPerSec := float64(fps) / float64(gop)
	pSize := bytesPerSec / gopsPerSec / float64(gop+3)
	iSize := 4 * pSize

	numFrames := int(cfg.DurationSec * float64(fps))
	tr := &Trace{Definition: cfg.Definition, DurationSec: cfg.DurationSec}
	frameInterval := 1.0 / float64(fps)
	for f := 0; f < numFrames; f++ {
		key := f%gop == 0
		nominal := pSize
		if key {
			nominal = iSize
		}
		// ±20% uniform size variation around nominal.
		size := int(nominal * (0.8 + 0.4*rng.Float64()))
		if size < 64 {
			size = 64
		}
		at := float64(f) * frameInterval
		// Packetize the frame; packets of one frame leave paced evenly
		// across a quarter of the frame interval, as hardware encoders
		// burst them.
		npkts := (size + mtuPayload - 1) / mtuPayload
		for i := 0; i < npkts; i++ {
			psize := mtuPayload
			if i == npkts-1 {
				psize = size - (npkts-1)*mtuPayload
			}
			tr.Packets = append(tr.Packets, PacketSpec{
				AtSec:      at + float64(i)*frameInterval/4/float64(npkts),
				Size:       psize + RTPHeaderLen,
				FrameStart: i == 0,
				FrameEnd:   i == npkts-1,
				Keyframe:   key,
			})
		}
	}
	return tr
}

// NumPackets returns the packet count.
func (t *Trace) NumPackets() int { return len(t.Packets) }

// MeanRateBps returns the trace's actual mean bitrate.
func (t *Trace) MeanRateBps() float64 {
	if t.DurationSec == 0 {
		return 0
	}
	var bytes int
	for _, p := range t.Packets {
		bytes += p.Size
	}
	return float64(bytes) * 8 / t.DurationSec
}

func (t *Trace) String() string {
	return fmt.Sprintf("%v trace: %d packets over %.0fs (%.2f Mbit/s)",
		t.Definition, len(t.Packets), t.DurationSec, t.MeanRateBps()/1e6)
}

// AudioTraceConfig controls synthetic voice stream generation. A
// conference's audio is a constant-rate stream of small packets (an
// Opus-like 50 packets/s of 160 bytes, ~64 kbit/s).
type AudioTraceConfig struct {
	DurationSec float64 // default 120 s
	Seed        uint64
}

func (c AudioTraceConfig) withDefaults() AudioTraceConfig {
	if c.DurationSec == 0 {
		c.DurationSec = 120
	}
	return c
}

const (
	audioPacketRate = 50.0
	audioPayloadB   = 160
)

// GenerateAudioTrace synthesizes a constant-rate voice stream with ±10%
// payload variation (voice activity).
func GenerateAudioTrace(cfg AudioTraceConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := loss.NewRNG(cfg.Seed ^ 0xa0d10)
	n := int(cfg.DurationSec * audioPacketRate)
	tr := &Trace{Definition: Def720p, DurationSec: cfg.DurationSec}
	for i := 0; i < n; i++ {
		size := int(float64(audioPayloadB) * (0.9 + 0.2*rng.Float64()))
		tr.Packets = append(tr.Packets, PacketSpec{
			AtSec:      float64(i) / audioPacketRate,
			Size:       size + RTPHeaderLen,
			FrameStart: true,
			FrameEnd:   true,
		})
	}
	return tr
}
