package media

import (
	"math"
	"testing"

	"vns/internal/loss"
)

func TestAdaptiveStaysUpWhenClean(t *testing.T) {
	st := RunAdaptive(loss.None{}, 600, 0)
	if st.TopShare != 1 {
		t.Errorf("top share = %v, want 1 on a clean path", st.TopShare)
	}
	if st.Downgrades != 0 {
		t.Errorf("downgrades = %d on a clean path", st.Downgrades)
	}
	if math.Abs(st.MeanBitrateBps-4e6) > 1e3 {
		t.Errorf("mean bitrate = %v", st.MeanBitrateBps)
	}
}

func TestAdaptiveDowngradesUnderLoss(t *testing.T) {
	lm := loss.NewUniform(0.02, loss.NewRNG(1)) // 2% loss, above threshold
	st := RunAdaptive(lm, 600, 0)
	if st.Downgrades == 0 {
		t.Fatal("no downgrades under 2% loss")
	}
	if st.TopShare > 0.2 {
		t.Errorf("top share = %v under sustained loss", st.TopShare)
	}
	if st.MeanBitrateBps >= 4e6 {
		t.Error("mean bitrate should drop")
	}
	// Time accounting: rung times sum to the duration.
	var sum float64
	for _, s := range st.TimeAtRung {
		sum += s
	}
	if math.Abs(sum-600) > 5.01 {
		t.Errorf("rung times sum to %v", sum)
	}
}

func TestAdaptiveRecoversAfterBurst(t *testing.T) {
	// Loss only during the first 30 s, then clean: the sender must climb
	// back to the top rung before the call ends.
	lm := timeGate{until: 30, inner: loss.NewUniform(0.05, loss.NewRNG(3))}
	st := RunAdaptive(lm, 900, 0)
	if st.Downgrades == 0 {
		t.Fatal("no downgrade during the burst")
	}
	if st.TimeAtRung[0] < 600 {
		t.Errorf("only %.0fs at top rung; should recover after the burst", st.TimeAtRung[0])
	}
}

// timeGate applies inner only before the cutoff.
type timeGate struct {
	until float64
	inner loss.Model
}

func (g timeGate) Drop(now float64) bool {
	if now >= g.until {
		return false
	}
	return g.inner.Drop(now)
}

func (g timeGate) Rate(now float64) float64 {
	if now >= g.until {
		return 0
	}
	return g.inner.Rate(now)
}

func TestAdaptiveTransientLossCostsMinutes(t *testing.T) {
	// The paper's point: even brief loss costs the user sustained
	// degradation because recovery is slow. 10 s of loss must cost well
	// over 10 s of degraded video.
	lm := timeGate{until: 10, inner: loss.NewUniform(0.1, loss.NewRNG(4))}
	st := RunAdaptive(lm, 600, 0)
	degraded := 600 - st.TimeAtRung[0]
	if degraded < 40 {
		t.Errorf("10s of loss cost only %.0fs of degradation", degraded)
	}
}

func TestAdaptiveBottomsOutUnderTotalLoss(t *testing.T) {
	lm := loss.NewUniform(1, loss.NewRNG(5)) // total loss
	st := RunAdaptive(lm, 100, 0)
	if len(st.TimeAtRung) != len(ladder) {
		t.Fatalf("rungs = %d", len(st.TimeAtRung))
	}
	if st.TimeAtRung[len(ladder)-1] == 0 {
		t.Error("never reached the bottom rung under total loss")
	}
	if st.String() == "" {
		t.Error("empty string")
	}
}
