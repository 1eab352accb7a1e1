package vns

import (
	"net/netip"
	"os/exec"
	"strings"
	"testing"
	"time"

	"vns/internal/experiments"
	"vns/internal/media"
	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// TestBenchHarnessBuilds vets the benchmark harness. bench/ is its own
// module, so `go build ./...` and `go test ./...` never compile it, and an
// identifier vnsbench uses that a change renames would otherwise surface
// only when the benchmark runs.
func TestBenchHarnessBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the bench module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	if out, err := exec.Command(goBin, "-C", "bench", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}

// TestEndToEndPipeline drives the whole stack once at small scale: world
// generation, every experiment driver, and every renderer. It guards
// against cross-module regressions that per-package tests cannot see.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env := experiments.NewEnv(experiments.Config{Seed: 123, NumAS: 800})

	renders := map[string]string{
		"fig3":       experiments.Fig3GeoPrecision(env).Render(),
		"fig3-plot":  experiments.Fig3GeoPrecision(env).RenderPlot(),
		"fig4":       experiments.Fig4EgressSelection(env).Render(),
		"fig5":       experiments.Fig5NeighborSelection(env).Render(),
		"fig6":       experiments.Fig6DelayDifference(env).Render(),
		"fig7":       experiments.Fig7IncomingTraffic(env, 2000).Render(),
		"congruence": experiments.CongruenceStudy(env).Render(),
		"econ":       experiments.EconStudy(env, true, nil).Render(),
		"repair":     experiments.RepairStudy(env, 5).Render(),
		"ablation":   experiments.AblationBestExternal(env).Render(),
	}
	fig9 := experiments.Fig9VideoLoss(env, experiments.Fig9Config{
		Days: 1, SessionsPerDay: 8, Definition: media.Def1080p,
	})
	renders["fig9"] = fig9.Render()
	renders["fig10"] = experiments.Fig10LossNature(fig9).Render()
	lm := experiments.LastMileStudy(env, experiments.LastMileConfig{Days: 1, HostsPerCell: 6})
	renders["fig11"] = lm.RenderFig11()
	renders["table1"] = lm.RenderTable1()
	renders["fig12"] = lm.RenderFig12()

	for name, out := range renders {
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("%s rendered empty output", name)
		}
	}
}

// TestEndToEndForwardingCongruence compiles the per-PoP forwarding
// plane over the full 2500-AS environment and checks the paper-scale
// acceptance property: the egress PoP the compiled FIB selects agrees
// with a fresh GeoRR control-plane decision for at least 99% of
// destinations, management overrides included, and an RTP stream driven
// through netsim by the London engine exits where the control plane
// says it should.
func TestEndToEndForwardingCongruence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	env := experiments.NewEnv(experiments.Config{NumAS: 2500})
	fwd := env.Forwarding(vns.ForwardingConfig{})
	lon := env.Net.PoP("LON")

	match, total := fwd.Congruence(lon)
	if total < 1000 {
		t.Fatalf("only %d destinations counted", total)
	}
	if got := float64(match) / float64(total); got < 0.99 {
		t.Fatalf("congruence %d/%d = %.4f, want >= 0.99", match, total, got)
	}

	// Overrides flow into the data path: force one prefix out a
	// different PoP, pin a static /24, and re-check congruence.
	var forced netip.Prefix
	eng := fwd.Engine("LON")
	for i := range env.Topo.Prefixes {
		pi := &env.Topo.Prefixes[i]
		nh, ok := eng.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range env.Peering.Candidates(pi.Origin) {
			if c.Session.PoP.ID != nh.PoP {
				forced = pi.Prefix
				if err := env.RR.ForceExit(forced, c.Session.Router); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if forced.IsValid() {
			break
		}
	}
	if !forced.IsValid() {
		t.Fatal("no forceable prefix found")
	}
	sub := netip.PrefixFrom(env.Topo.Prefixes[1].Prefix.Addr(), 24)
	if err := env.RR.AddStatic(sub, env.Net.PoP("SIN").Routers[0], func(netip.Prefix) bool { return true }); err != nil {
		t.Fatal(err)
	}
	match, total = fwd.Congruence(lon)
	if got := float64(match) / float64(total); got < 0.99 {
		t.Fatalf("congruence with overrides %d/%d = %.4f, want >= 0.99", match, total, got)
	}

	// An RTP stream forwarded by the compiled plane reaches the egress
	// PoP the control plane decided on.
	var dst netip.Addr
	var wantPoP int
	for i := range env.Topo.Prefixes {
		pi := &env.Topo.Prefixes[i]
		if nh, ok := eng.Lookup(pi.Prefix.Addr()); ok && nh.PoP != lon.ID {
			dst, wantPoP = pi.Prefix.Addr(), nh.PoP
			break
		}
	}
	tr := media.GenerateTrace(media.TraceConfig{DurationSec: 5, Seed: 9})
	var sim netsim.Sim
	_, egress := fwd.ForwardStream(&sim, lon, dst, tr)
	sim.RunAll()
	if egress[wantPoP] != tr.NumPackets() {
		t.Fatalf("RTP stream: %d/%d packets at PoP %d (map %v)",
			egress[wantPoP], tr.NumPackets(), wantPoP, egress)
	}
}

// TestEndToEndWireControlPlane runs the control plane over real BGP/TCP
// with the management interface, deployed as cmd/vnsd deploys it and
// driven as cmd/vnsctl drives it.
func TestEndToEndWireControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	d := experiments.NewEnv(experiments.Config{Seed: 321, NumAS: 400}).Deploy(vns.ForwardingConfig{})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	env, w, mg := d.Env, d.Wire, d.Mgmt

	sent, err := w.ConnectEgresses(50)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest barrier: every announcement is its own UPDATE, and the
	// reflector records one forwarding stage per UPDATE, after applying
	// it to the Loc-RIB and under the lock that does. (GeoRR.Assign
	// counts cannot serve, as internal/vns/wire_test.go's awaitIngest
	// uses them: the forwarding plane's resolves call Assign too.)
	want := uint64(sent)
	conv := d.Fwd.Convergence()
	deadline := time.Now().Add(30 * time.Second)
	for got := conv.StageCount(telemetry.StageForwarding); got < want; got = conv.StageCount(telemetry.StageForwarding) {
		if time.Now().After(deadline) {
			t.Fatalf("reflector ingested %d of %d announcements", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.RR.NumRoutes() != 50 {
		t.Fatalf("%d routes converged, want 50", w.RR.NumRoutes())
	}

	// Drive the management interface end to end: stats, show, exempt,
	// force, static with a covering route.
	p := env.Topo.Prefixes[0].Prefix
	if out := mg.Execute("stats"); !strings.Contains(out, "routes=") {
		t.Errorf("stats = %q", out)
	}
	if out := mg.Execute("show " + p.String()); !strings.Contains(out, "via") {
		t.Errorf("show = %q", out)
	}
	if out := mg.Execute("exempt " + p.String()); out != "OK" {
		t.Errorf("exempt = %q", out)
	}
	egress := env.Net.PoP("SIN").Routers[0]
	if out := mg.Execute("force " + p.String() + " " + egress.String()); out != "OK" {
		t.Errorf("force = %q", out)
	}
	// A /24 inside the first prefix, statically advertised from SIN.
	sub := netip.PrefixFrom(p.Addr(), 24)
	if out := mg.Execute("static " + sub.String() + " " + egress.String()); out != "OK" {
		t.Errorf("static = %q", out)
	}
	if got := len(env.RR.Policy().StaticUpdates()); got != 1 {
		t.Errorf("static updates = %d", got)
	}
}
