package media

import (
	"testing"

	"vns/internal/loss"
)

func fecTrace() *Trace {
	return GenerateTrace(TraceConfig{Definition: Def1080p, DurationSec: 60, Seed: 77})
}

func TestFECLosslessIsNoop(t *testing.T) {
	st := RunFEC(fecTrace(), FECScheme{Block: 10}, loss.None{}, 0)
	if st.Lost != 0 || st.Residual != 0 || st.Recovered != 0 {
		t.Errorf("lossless FEC run: %+v", st)
	}
	if st.Parity == 0 {
		t.Error("no parity packets emitted")
	}
	// Parity volume ~ sent/block.
	want := st.Sent / 10
	if st.Parity < want-2 || st.Parity > want+2 {
		t.Errorf("parity = %d, want ~%d", st.Parity, want)
	}
}

func TestFECRepairsRandomLoss(t *testing.T) {
	tr := fecTrace()
	lm := loss.NewUniform(0.005, loss.NewRNG(1)) // 0.5% random
	st := RunFEC(tr, FECScheme{Block: 10}, lm, 0)
	if st.Lost == 0 {
		t.Fatal("no wire loss")
	}
	// Random 0.5% loss with block 10: double hits are rare, so the vast
	// majority of losses repair.
	recoveryRate := float64(st.Recovered) / float64(st.Lost)
	if recoveryRate < 0.85 {
		t.Errorf("FEC recovered only %.0f%% of random losses", recoveryRate*100)
	}
	if st.ResidualPct() >= st.WirePct()/3 {
		t.Errorf("residual %.3f%% not well below wire %.3f%%", st.ResidualPct(), st.WirePct())
	}
}

func TestFECDefeatedByBurstyLoss(t *testing.T) {
	tr := fecTrace()
	// Same mean rate as the random test, but concentrated in bursts of
	// ~10 packets.
	bursty := loss.NewGilbertElliott(0.00056, 0.1, 0, 0.9, loss.NewRNG(2))
	st := RunFEC(tr, FECScheme{Block: 10}, bursty, 0)
	if st.Lost == 0 {
		t.Fatal("no wire loss")
	}
	recoveryRate := float64(st.Recovered) / float64(st.Lost)
	// Bursts overwhelm a block's single parity: recovery collapses.
	if recoveryRate > 0.4 {
		t.Errorf("FEC recovered %.0f%% of bursty losses; should collapse", recoveryRate*100)
	}
}

func TestFECSmallerBlocksRepairMore(t *testing.T) {
	tr := fecTrace()
	mk := func(block int) float64 {
		lm := loss.NewUniform(0.01, loss.NewRNG(3))
		return RunFEC(tr, FECScheme{Block: block}, lm, 0).ResidualPct()
	}
	if mk(5) >= mk(40) {
		t.Error("smaller FEC blocks should leave less residual loss")
	}
}

func TestFECAccounting(t *testing.T) {
	tr := fecTrace()
	lm := loss.NewUniform(0.02, loss.NewRNG(4))
	st := RunFEC(tr, FECScheme{Block: 8}, lm, 0)
	if st.Recovered+st.Residual != st.Lost {
		t.Errorf("recovered %d + residual %d != lost %d", st.Recovered, st.Residual, st.Lost)
	}
	if st.Sent != tr.NumPackets() {
		t.Errorf("sent = %d, want %d", st.Sent, tr.NumPackets())
	}
}

func TestFECDefaults(t *testing.T) {
	st := RunFEC(fecTrace(), FECScheme{}, loss.None{}, 0)
	if st.Parity == 0 {
		t.Error("zero block size should default, not disable")
	}
	if (FECScheme{Block: 10}).String() == "" {
		t.Error("empty string")
	}
}

func TestRetransmitRepairsWithBudget(t *testing.T) {
	tr := fecTrace()
	lm := loss.NewUniform(0.01, loss.NewRNG(5))
	// 40 ms RTT, 200 ms playout deadline: 5 retries — essentially all
	// random losses repair.
	st := RunRetransmit(tr, lm, 40, 200, 0)
	if st.Lost == 0 {
		t.Fatal("no loss")
	}
	if rate := float64(st.Recovered) / float64(st.Lost); rate < 0.95 {
		t.Errorf("short-RTT retransmit recovered only %.0f%%", rate*100)
	}
}

func TestRetransmitNeedsLowRTT(t *testing.T) {
	tr := fecTrace()
	// 300 ms RTT against a 200 ms deadline: zero retry budget, so every
	// loss is residual. This is the paper's point about needing a relay
	// close to the user.
	lm := loss.NewUniform(0.01, loss.NewRNG(6))
	st := RunRetransmit(tr, lm, 300, 200, 0)
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0 with RTT > deadline", st.Retries)
	}
	if st.Residual != st.Lost {
		t.Errorf("residual %d != lost %d", st.Residual, st.Lost)
	}
	if st.ResidualPct() == 0 {
		t.Error("should have residual loss")
	}
}

func TestRetransmitVsBurstyLoss(t *testing.T) {
	tr := fecTrace()
	bursty := loss.NewGilbertElliott(0.00056, 0.1, 0, 0.9, loss.NewRNG(7))
	// Bursts are short relative to an RTT, so a retransmission one RTT
	// later usually lands after the burst: retransmission handles bursty
	// loss better than FEC (given the RTT budget).
	st := RunRetransmit(tr, bursty, 40, 200, 0)
	if st.Lost == 0 {
		t.Skip("no loss this run")
	}
	if rate := float64(st.Recovered) / float64(st.Lost); rate < 0.7 {
		t.Errorf("retransmit recovered only %.0f%% of bursty losses", rate*100)
	}
}

func TestRetransmitAccounting(t *testing.T) {
	tr := fecTrace()
	lm := loss.NewUniform(0.05, loss.NewRNG(8))
	st := RunRetransmit(tr, lm, 50, 200, 0)
	if st.Recovered+st.Residual != st.Lost {
		t.Errorf("recovered %d + residual %d != lost %d", st.Recovered, st.Residual, st.Lost)
	}
}
