package media

import (
	"fmt"

	"vns/internal/loss"
)

// This file implements the loss counter-measures the paper's related
// work discusses (§2): forward error correction, which "performs poorly
// when loss is very high or bursty", and selective retransmission over
// the lossy hop, which needs a low RTT and "the presence of a video
// relay server close to end users". The repair experiment
// (internal/experiments) quantifies both claims against the loss models,
// motivating the paper's choice to remove loss in the network instead.

// FECScheme is a simple XOR parity scheme: for every Block source
// packets one parity packet is emitted, and any single loss within a
// block is recoverable. This is the classic 1-D interleaved parity FEC
// used by conferencing systems (RFC 5109-style).
type FECScheme struct {
	// Block is the number of source packets protected by one parity
	// packet. Smaller blocks mean more overhead and more repair power.
	Block int
}

func (f FECScheme) String() string {
	return fmt.Sprintf("xor-fec(1/%d)", f.Block)
}

// RepairStats summarizes a protected stream.
type RepairStats struct {
	Sent      int // source packets sent
	Parity    int // parity packets sent
	Lost      int // source packets lost on the wire
	Recovered int // source packets recovered by FEC
	Residual  int // source packets lost after repair
}

// ResidualPct returns the post-repair loss percentage.
func (s RepairStats) ResidualPct() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Residual) / float64(s.Sent) * 100
}

// WirePct returns the pre-repair loss percentage.
func (s RepairStats) WirePct() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Sent) * 100
}

// RunFEC streams a trace through a loss model under XOR parity
// protection: within each block, a single source loss is recovered if
// the parity packet survives; two or more losses in a block are
// unrecoverable. Parity packets traverse the same loss process (they
// are interleaved on the wire).
//
// Random loss rarely hits a block twice, so FEC repairs it; bursty loss
// concentrates hits in one block and defeats the parity — exactly the
// behaviour the paper cites when arguing for removing loss in the
// network instead of papering over it.
func RunFEC(tr *Trace, scheme FECScheme, lm loss.Model, startSec float64) RepairStats {
	var st RepairStats
	if scheme.Block <= 0 {
		scheme.Block = 10
	}
	lostInBlock := 0
	inBlock := 0
	flush := func(at float64) {
		st.Parity++
		parityLost := lm != nil && lm.Drop(startSec+at)
		switch {
		case lostInBlock == 0:
			// Nothing to repair.
		case lostInBlock == 1 && !parityLost:
			st.Recovered++
		default:
			st.Residual += lostInBlock
		}
		lostInBlock = 0
		inBlock = 0
	}
	var lastAt float64
	for _, p := range tr.Packets {
		st.Sent++
		inBlock++
		lastAt = p.AtSec
		if lm != nil && lm.Drop(startSec+p.AtSec) {
			st.Lost++
			lostInBlock++
		}
		if inBlock == scheme.Block {
			flush(p.AtSec)
		}
	}
	if inBlock > 0 {
		flush(lastAt)
	}
	return st
}

// RetransmitStats summarizes a stream protected by selective
// retransmission over the lossy hop.
type RetransmitStats struct {
	Sent      int
	Lost      int // first-transmission losses
	Recovered int // losses repaired within the deadline
	Residual  int // losses that missed the playout deadline
	Retries   int // retransmissions sent
}

// ResidualPct returns the post-repair loss percentage.
func (s RetransmitStats) ResidualPct() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Residual) / float64(s.Sent) * 100
}

// RunRetransmit streams a trace through a loss model with selective
// retransmission: each lost packet is retransmitted (over the same loss
// process) as long as a round trip fits within the playout deadline.
// The number of usable retries is floor(deadline / RTT) — this is why
// the paper notes retransmission "requires the presence of a video
// relay server close to end users": a long RTT leaves no retry budget.
func RunRetransmit(tr *Trace, lm loss.Model, rttMs, deadlineMs, startSec float64) RetransmitStats {
	var st RetransmitStats
	budget := 0
	if rttMs > 0 {
		budget = int(deadlineMs / rttMs)
	}
	for _, p := range tr.Packets {
		st.Sent++
		if lm == nil || !lm.Drop(startSec+p.AtSec) {
			continue
		}
		st.Lost++
		repaired := false
		for attempt := 0; attempt < budget; attempt++ {
			st.Retries++
			// The retransmission happens one RTT later; the loss
			// process sees the advanced time.
			at := startSec + p.AtSec + float64(attempt+1)*rttMs/1000
			if !lm.Drop(at) {
				repaired = true
				break
			}
		}
		if repaired {
			st.Recovered++
		} else {
			st.Residual++
		}
	}
	return st
}
