package media

import (
	"fmt"

	"vns/internal/loss"
)

// This file implements the adaptive-rate behaviour the paper notes as a
// second-order cost of packet loss: "it can lead to downgrading the
// transmission rate in adaptive implementations". An adaptive sender
// watches receiver loss reports and steps the encoded definition down
// under loss, recovering only after sustained clean windows — so even
// transient loss costs the user minutes of degraded video.

// Rung is one rung of the adaptive bitrate ladder.
type Rung struct {
	Name       string
	BitrateBps float64
}

// ladder is a conferencing-style rate ladder from full HD down to a
// thumbnail stream, highest first.
var ladder = []Rung{
	{"1080p", 4.0e6},
	{"720p", 2.5e6},
	{"480p", 1.2e6},
	{"360p", 0.7e6},
}

// The controller: receiver loss reports every windowSec (RTCP-like);
// window loss above downThresholdPct steps down, upAfterWindows
// consecutive clean windows (a minute of clean video) step up.
const (
	windowSec        = 5.0
	downThresholdPct = 0.5
	upAfterWindows   = 12
)

// AdaptiveStats summarizes an adaptive session.
type AdaptiveStats struct {
	// TimeAtRung[i] is the seconds spent at ladder rung i.
	TimeAtRung []float64
	// Downgrades counts rate reductions.
	Downgrades int
	// MeanBitrateBps is the time-averaged sent bitrate.
	MeanBitrateBps float64
	// TopShare is the fraction of the call spent at the top rung.
	TopShare float64
}

func (s AdaptiveStats) String() string {
	return fmt.Sprintf("adaptive: %.0f%% at top rung, %d downgrades, mean %.2f Mbit/s",
		s.TopShare*100, s.Downgrades, s.MeanBitrateBps/1e6)
}

// RunAdaptive simulates an adaptive sender over a loss process for the
// given duration: each window's loss is sampled at the current rung's
// packet rate; loss above the threshold steps the rate down, sustained
// clean windows step it back up.
func RunAdaptive(lm loss.Model, durationSec, startSec float64) AdaptiveStats {
	st := AdaptiveStats{TimeAtRung: make([]float64, len(ladder))}
	rung := 0
	clean := 0
	var rateTime float64

	for at := 0.0; at < durationSec; at += windowSec {
		r := ladder[rung]
		// Packets in this window at the rung's bitrate (1200 B payloads).
		pkts := int(r.BitrateBps / 8 / 1200 * windowSec)
		lost := 0
		for i := 0; i < pkts; i++ {
			if lm != nil && lm.Drop(startSec+at+float64(i)*windowSec/float64(pkts)) {
				lost++
			}
		}
		st.TimeAtRung[rung] += windowSec
		rateTime += r.BitrateBps * windowSec

		lossPct := 0.0
		if pkts > 0 {
			lossPct = float64(lost) / float64(pkts) * 100
		}
		if lossPct > downThresholdPct {
			clean = 0
			if rung < len(ladder)-1 {
				rung++
				st.Downgrades++
			}
		} else {
			clean++
			if clean >= upAfterWindows && rung > 0 {
				rung--
				clean = 0
			}
		}
	}
	st.MeanBitrateBps = rateTime / durationSec
	st.TopShare = st.TimeAtRung[0] / durationSec
	return st
}
