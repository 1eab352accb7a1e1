package media

import (
	"math"
	"testing"
	"testing/quick"

	"vns/internal/loss"
	"vns/internal/netsim"
)

func TestRTPRoundTrip(t *testing.T) {
	in := RTPPacket{
		Marker:      true,
		PayloadType: 96,
		Seq:         4242,
		Timestamp:   900001,
		SSRC:        0xDEADBEEF,
		Payload:     []byte("frame data"),
	}
	buf, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalRTP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Marker != in.Marker || out.PayloadType != in.PayloadType ||
		out.Seq != in.Seq || out.Timestamp != in.Timestamp || out.SSRC != in.SSRC ||
		string(out.Payload) != string(in.Payload) {
		t.Errorf("got %+v, want %+v", out, in)
	}
}

func TestRTPRoundTripProperty(t *testing.T) {
	f := func(marker bool, pt uint8, seq uint16, ts, ssrc uint32, payload []byte) bool {
		in := RTPPacket{Marker: marker, PayloadType: pt & 0x7F, Seq: seq,
			Timestamp: ts, SSRC: ssrc, Payload: payload}
		buf, err := in.Marshal()
		if err != nil {
			return false
		}
		out, err := UnmarshalRTP(buf)
		if err != nil {
			return false
		}
		if len(out.Payload) != len(payload) {
			return false
		}
		return out.Seq == in.Seq && out.Timestamp == in.Timestamp && out.SSRC == in.SSRC
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRTPRejectsMalformed(t *testing.T) {
	if _, err := UnmarshalRTP([]byte{1, 2, 3}); err == nil {
		t.Error("short packet should fail")
	}
	good, _ := (&RTPPacket{PayloadType: 96}).Marshal()
	bad := append([]byte{}, good...)
	bad[0] = 1 << 6 // version 1
	if _, err := UnmarshalRTP(bad); err == nil {
		t.Error("wrong version should fail")
	}
	bad2 := append([]byte{}, good...)
	bad2[0] |= 0x20 // padding bit
	if _, err := UnmarshalRTP(bad2); err == nil {
		t.Error("padding should be rejected")
	}
	if _, err := (&RTPPacket{PayloadType: 200}).Marshal(); err == nil {
		t.Error("payload type > 127 should fail to marshal")
	}
}

func TestJitterEstimatorConstantDelay(t *testing.T) {
	var j JitterEstimator
	for i := 0; i < 100; i++ {
		at := float64(i) * 20
		j.Observe(at, at+50) // constant 50 ms transit
	}
	if j.Jitter() != 0 {
		t.Errorf("constant delay should give zero jitter, got %v", j.Jitter())
	}
}

func TestJitterEstimatorVariableDelay(t *testing.T) {
	var j JitterEstimator
	rng := loss.NewRNG(1)
	for i := 0; i < 1000; i++ {
		at := float64(i) * 20
		j.Observe(at, at+50+rng.Float64()*10)
	}
	// Uniform [0,10) interarrival variation: RFC 3550 jitter settles in
	// the low single digits of ms.
	if j.Jitter() <= 0 || j.Jitter() > 10 {
		t.Errorf("jitter = %v, want (0, 10)", j.Jitter())
	}
	if j.Max() < j.Jitter() {
		t.Error("max < current")
	}
}

func TestGenerateTraceBitrate(t *testing.T) {
	for _, def := range []Definition{Def720p, Def1080p} {
		tr := GenerateTrace(TraceConfig{Definition: def, Seed: 1})
		got := tr.MeanRateBps()
		want := def.BitrateBps()
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("%v trace rate = %.2f Mbit/s, want ~%.2f", def, got/1e6, want/1e6)
		}
		if tr.DurationSec != 120 {
			t.Errorf("duration = %v", tr.DurationSec)
		}
	}
}

func TestGenerateTraceStructure(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Definition: Def1080p, DurationSec: 10, Seed: 2})
	if tr.NumPackets() == 0 {
		t.Fatal("empty trace")
	}
	last := -1.0
	frames, keyframes := 0, 0
	for _, p := range tr.Packets {
		if p.AtSec < last {
			t.Fatal("packets not in time order")
		}
		last = p.AtSec
		if p.AtSec < 0 || p.AtSec > tr.DurationSec {
			t.Fatalf("packet at %v outside stream", p.AtSec)
		}
		if p.Size <= 0 || p.Size > 1212+RTPHeaderLen {
			t.Fatalf("packet size %d", p.Size)
		}
		if p.FrameStart {
			frames++
			if p.Keyframe {
				keyframes++
			}
		}
	}
	if frames != 300 { // 10 s at 30 fps
		t.Errorf("frames = %d, want 300", frames)
	}
	if keyframes != 10 { // one per second with GOP 30
		t.Errorf("keyframes = %d, want 10", keyframes)
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	a := GenerateTrace(TraceConfig{Definition: Def720p, DurationSec: 5, Seed: 3})
	b := GenerateTrace(TraceConfig{Definition: Def720p, DurationSec: 5, Seed: 3})
	if a.NumPackets() != b.NumPackets() {
		t.Fatal("same seed, different packet counts")
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatal("same seed, different packets")
		}
	}
	c := GenerateTrace(TraceConfig{Definition: Def720p, DurationSec: 5, Seed: 4})
	same := a.NumPackets() == c.NumPackets()
	if same {
		for i := range a.Packets {
			if a.Packets[i] != c.Packets[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestStreamStatsAccounting(t *testing.T) {
	st := NewStreamStats(Def1080p, 120)
	if len(st.SlotSent) != 25 {
		t.Errorf("slots = %d", len(st.SlotSent))
	}
	st.RecordSent(0)
	st.RecordSent(7) // slot 1
	st.RecordLost(7)
	st.RecordReceived(0, 50)
	if st.Sent != 2 || st.Received != 1 {
		t.Errorf("sent/recv = %d/%d", st.Sent, st.Received)
	}
	if got := st.LossPct(); got != 50 {
		t.Errorf("loss = %v%%", got)
	}
	if st.LossySlots() != 1 {
		t.Errorf("lossy slots = %d", st.LossySlots())
	}
	if st.SlotLost[1] != 1 || st.SlotSent[1] != 1 {
		t.Errorf("slot accounting wrong: %v %v", st.SlotSent, st.SlotLost)
	}
	if s := st.String(); s == "" {
		t.Error("empty string")
	}
}

func TestStreamStatsEmptyLoss(t *testing.T) {
	st := NewStreamStats(Def720p, 10)
	if st.LossPct() != 0 {
		t.Error("loss of empty stream should be 0")
	}
}

func TestFastRunLossless(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Definition: Def1080p, DurationSec: 30, Seed: 5})
	st := FastRun(tr, nil, 0, 50, 0, loss.NewRNG(1))
	if st.LossPct() != 0 || st.Received != tr.NumPackets() {
		t.Errorf("lossless run lost packets: %v", st)
	}
	if st.Jitter.Jitter() > 1e-9 {
		t.Errorf("zero-sigma jitter = %v", st.Jitter.Jitter())
	}
}

func TestFastRunMatchesModelRate(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Definition: Def1080p, DurationSec: 120, Seed: 6})
	lm := loss.NewUniform(0.01, loss.NewRNG(2))
	st := FastRun(tr, lm, 0, 50, 2, loss.NewRNG(3))
	if st.LossPct() < 0.5 || st.LossPct() > 2 {
		t.Errorf("loss = %.2f%%, want ~1%%", st.LossPct())
	}
	if st.Jitter.Jitter() <= 0 {
		t.Error("no jitter with sigma 2")
	}
	// Uniform loss at 1% over 24 slots: nearly every slot lossy (a
	// 1080p slot carries ~2000 packets).
	if st.LossySlots() < 20 {
		t.Errorf("lossy slots = %d, want near 24 for uniform loss", st.LossySlots())
	}
}

func TestFastRunBurstLossConcentrated(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Definition: Def1080p, DurationSec: 120, Seed: 7})
	// One strong 5s burst per session on average, no background loss.
	lm := loss.NewBurstEvents(loss.None{}, 30, 5, 0.8, loss.NewRNG(4))
	st := FastRun(tr, lm, 0, 50, 0, loss.NewRNG(5))
	if st.Sent == st.Received {
		t.Skip("burst did not land in this session")
	}
	if st.LossySlots() > 8 {
		t.Errorf("burst loss spread over %d slots, want concentrated", st.LossySlots())
	}
	if st.LossPct() < 0.5 {
		t.Errorf("burst loss only %.3f%%", st.LossPct())
	}
}

func TestRunOverPathMatchesFastRun(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Definition: Def720p, DurationSec: 20, Seed: 8})
	var sim netsim.Sim
	link := netsim.NewLink("l", 40, 0, loss.NewUniform(0.02, loss.NewRNG(6)), nil)
	path := netsim.NewPath(link)
	st := RunOverPath(&sim, path, tr)
	sim.RunAll()
	if st.Sent != tr.NumPackets() {
		t.Errorf("sent = %d, want %d", st.Sent, tr.NumPackets())
	}
	lossPct := st.LossPct()
	if lossPct < 0.5 || lossPct > 5 {
		t.Errorf("loss = %.2f%%, want ~2%%", lossPct)
	}
	if st.Received+int(float64(st.Sent)*lossPct/100+0.5) != st.Sent {
		t.Error("accounting inconsistent")
	}
}

func BenchmarkFastRun(b *testing.B) {
	tr := GenerateTrace(TraceConfig{Definition: Def1080p, Seed: 1})
	lm := loss.NewGilbertElliott(0.001, 0.1, 0.0001, 0.3, loss.NewRNG(1))
	rng := loss.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FastRun(tr, lm, float64(i)*1800, 80, 2, rng)
	}
}

func TestGenerateAudioTrace(t *testing.T) {
	tr := GenerateAudioTrace(AudioTraceConfig{DurationSec: 10, Seed: 1})
	if tr.NumPackets() != 500 { // 10 s at 50 pps
		t.Errorf("packets = %d, want 500", tr.NumPackets())
	}
	rate := tr.MeanRateBps()
	if rate < 50e3 || rate > 90e3 {
		t.Errorf("audio rate = %.0f bit/s, want ~70k", rate)
	}
	for i, p := range tr.Packets {
		if p.Size < RTPHeaderLen+100 || p.Size > RTPHeaderLen+200 {
			t.Fatalf("packet %d size %d", i, p.Size)
		}
	}
	// Deterministic.
	tr2 := GenerateAudioTrace(AudioTraceConfig{DurationSec: 10, Seed: 1})
	for i := range tr.Packets {
		if tr.Packets[i] != tr2.Packets[i] {
			t.Fatal("audio trace not deterministic")
		}
	}
}
