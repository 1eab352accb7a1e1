package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vns/internal/experiments"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

var update = flag.Bool("update", false, "regenerate golden files")

// TestConvStatusLine pins the convergence status-line split: the count
// half is deterministic (golden-safe), the quantile suffix carries the
// wall-clock latencies.
func TestConvStatusLine(t *testing.T) {
	reg := telemetry.New()
	clock := 0.0
	conv := telemetry.NewConvergence(reg, nil, func() float64 { return clock })

	ev := conv.Begin(telemetry.ConvFailover)
	m := ev.Mark()
	clock += 0.002
	ev.Stage(telemetry.StageGeoRR, m)
	m = ev.Mark()
	clock += 0.001
	ev.StageExclusive(telemetry.StageForwarding, m)
	ev.Finish()

	want := "convergence: events=1 ingest=0 select=0 georr=1 fib_compile=0 forwarding=1"
	if got := convStatusLine(conv); got != want {
		t.Errorf("convStatusLine:\n got %q\nwant %q", got, want)
	}
	suffix := convQuantileSuffix(conv)
	for _, s := range telemetry.ConvStages {
		if !strings.Contains(suffix, " "+s+"_p50=") || !strings.Contains(suffix, " "+s+"_p99=") {
			t.Errorf("quantile suffix missing stage %s: %q", s, suffix)
		}
	}
	// The 2ms observation lands in the (1ms, 2.5ms] bucket; p50
	// interpolates to its midpoint.
	if !strings.Contains(suffix, "georr_p50=1750.0us") {
		t.Errorf("georr p50 not rendered from the 2ms stage: %q", suffix)
	}
}

// TestFIBStatusGolden drives a real (small) deployment through a drain
// and restore on the failover controller, the path vnsctl egress-down
// and egress-up take, and golden-diffs the daemon's per-PoP FIB status
// lines. The lines contain only virtual-clock state, so the transcript
// is byte-stable; regenerate with
//
//	go test ./cmd/vnsd -run Golden -update
func TestFIBStatusGolden(t *testing.T) {
	d := experiments.NewEnv(experiments.Config{NumAS: 60}).Deploy(vns.ForwardingConfig{}) // synchronous recompiles

	var b strings.Builder
	snapshot := func(label string) {
		fmt.Fprintf(&b, "== %s\n", label)
		for _, eng := range d.Fwd.Engines() {
			s := eng.Stats().FIB
			fmt.Fprintf(&b, "%s\n", fibStatusLine(d.Net.PoPByID(eng.PoP()).Code, s, d.Fwd.Pending()))
		}
	}

	snapshot("initial")

	drained := netip.MustParseAddr("10.0.7.1") // SIN router 1
	d.Controller.Drain(drained, true)
	snapshot("egress-down SIN:1")

	d.Controller.Drain(drained, false)
	snapshot("egress-up SIN:1")

	golden := filepath.Join("testdata", "fib_status.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create): %v", err)
	}
	if string(want) != b.String() {
		t.Errorf("FIB status transcript diverged\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}
