// Command experiments regenerates the paper's tables and figures from
// the synthetic deployment.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig3,fig4 -numas 5000 -seed 7
//	experiments -run fig9 -days 5
//
// Each experiment prints the rows or series of the corresponding paper
// figure; EXPERIMENTS.md records the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"vns/internal/experiments"
	"vns/internal/media"
	"vns/internal/scenario"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: fig3,fig4,fig5,fig6,fig7,fig9,fig10,fig11,table1,fig12,congruence,adaptive,repair,mediaclaims,qoe,capacity,econ,ablations,failover,flows,scenario,soak or all (soak never runs under all)")
	seed := flag.Uint64("seed", 0, "random seed (0 = default)")
	numAS := flag.Int("numas", 0, "synthetic Internet size in ASes (0 = default 3000)")
	days := flag.Int("days", 0, "measurement days for fig9/fig10/fig11/fig12/table1 (0 = defaults)")
	requests := flag.Int("requests", 0, "anycast requests for fig7 (0 = 60000)")
	plot := flag.Bool("plot", false, "append ASCII plots to figures that have them")
	flows := flag.Int("flows", 0, "aggregate flow population for the flows and soak studies (0 = 1,000,000)")
	soakDur := flag.Float64("soak-duration", 0, "soak wall-clock duration in seconds (0 = 30)")
	soakPrefixes := flag.Int("soak-prefixes", 0, "soak routing-table size in prefixes (0 = 400,000)")
	soakScrape := flag.Float64("soak-scrape", 0, "soak metrics self-scrape interval in seconds (0 = 1)")
	soakOut := flag.String("soak-out", "", "write soak scrapes as JSONL to this file (empty = discard)")
	spec := flag.String("spec", "", "run only this embedded scenario spec (scenario experiment)")
	seeds := flag.Int("seeds", 0, "scenario seed-sweep width (0 = single run per spec)")
	events := flag.Int("events", -1, "truncate scenario timelines to the first N events (-1 = all; sweep repros use this)")
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	need := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	start := time.Now()
	// The environment is built on first use: the scenario harness (and
	// the failover study) assemble their own worlds and should not pay
	// for — or wait on — the shared one.
	var envOnce sync.Once
	var sharedEnv *experiments.Env
	env := func() *experiments.Env {
		envOnce.Do(func() {
			t0 := time.Now()
			fmt.Fprintf(os.Stderr, "building environment (seed=%d, ASes=%d)...\n", *seed, *numAS)
			sharedEnv = experiments.NewEnv(experiments.Config{Seed: *seed, NumAS: *numAS})
			fmt.Fprintf(os.Stderr, "environment ready in %v: %d ASes, %d prefixes, %d sessions\n",
				time.Since(t0).Round(time.Millisecond), len(sharedEnv.Topo.ASNs()), len(sharedEnv.Topo.Prefixes),
				len(sharedEnv.Peering.Sessions()))
		})
		return sharedEnv
	}

	section := func(name string, f func() string) {
		if !need(name) {
			return
		}
		t0 := time.Now()
		out := f()
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	section("fig3", func() string {
		r := experiments.Fig3GeoPrecision(env())
		out := r.Render()
		if *plot {
			out += "\n" + r.RenderPlot()
		}
		return out
	})
	section("fig4", func() string { return experiments.Fig4EgressSelection(env()).Render() })
	section("fig5", func() string { return experiments.Fig5NeighborSelection(env()).Render() })
	section("fig6", func() string {
		r := experiments.Fig6DelayDifference(env())
		out := r.Render()
		if *plot {
			out += "\n" + r.RenderPlot()
		}
		return out
	})
	section("fig7", func() string { return experiments.Fig7IncomingTraffic(env(), *requests).Render() })

	var fig9 *experiments.Fig9Result
	if need("fig9", "fig10") {
		fig9 = experiments.Fig9VideoLoss(env(), experiments.Fig9Config{Days: *days, Definition: media.Def1080p})
	}
	section("fig9", func() string { return fig9.Render() })
	section("fig10", func() string {
		r := experiments.Fig10LossNature(fig9)
		out := r.Render()
		if *plot {
			out += "\n" + r.RenderPlot()
		}
		return out
	})

	var lastMile *experiments.LastMileResult
	if need("fig11", "table1", "fig12") {
		lastMile = experiments.LastMileStudy(env(), experiments.LastMileConfig{Days: *days})
	}
	section("fig11", func() string { return lastMile.RenderFig11() })
	section("table1", func() string { return lastMile.RenderTable1() })
	section("fig12", func() string { return lastMile.RenderFig12() })

	section("congruence", func() string { return experiments.CongruenceStudy(env()).Render() })
	section("adaptive", func() string { return experiments.AdaptiveStudy(env()).Render() })
	section("repair", func() string { return experiments.RepairStudy(env(), 30).Render() })
	section("mediaclaims", func() string { return experiments.MediaClaims(env(), 100).Render() })
	section("qoe", func() string { return experiments.QoEStudy(env(), 8).Render() })
	section("capacity", func() string { return experiments.CapacityStudy(env(), 0, 0).Render() })
	section("econ", func() string {
		return experiments.EconStudy(env(), true, nil).Render() + "\n" +
			experiments.EconStudy(env(), false, nil).Render()
	})

	// The failover study mutates link state, so it builds its own
	// (smaller) environment rather than sharing env.
	section("failover", func() string {
		cfg := experiments.Config{Seed: *seed, NumAS: *numAS}
		if *numAS == 0 {
			cfg.NumAS = 1500
		}
		return experiments.FailoverStudy(cfg).Render()
	})

	// The flow study builds its own links (capacity scaled to its load)
	// and needs no shared environment.
	section("flows", func() string {
		return experiments.FlowStudy(experiments.FlowsConfig{Flows: *flows}).Render()
	})

	// The soak study holds the combined churn + flow load for real wall
	// time, so it runs only when named explicitly — never under "all".
	// It builds its own world (registry, routing plane, flow engine)
	// and fails the process when a soak gate (scrape gaps, counter
	// regressions, flow conservation, stage additivity) is violated.
	soakFailed := false
	if want["soak"] {
		section("soak", func() string {
			cfg := experiments.SoakConfig{
				Prefixes:          *soakPrefixes,
				Flows:             *flows,
				DurationSec:       *soakDur,
				ScrapeIntervalSec: *soakScrape,
				Seed:              *seed,
			}
			if *soakOut != "" {
				f, err := os.Create(*soakOut)
				if err != nil {
					soakFailed = true
					return fmt.Sprintf("soak: FAIL cannot open -soak-out: %v", err)
				}
				defer f.Close()
				cfg.Out = f
			}
			r := experiments.SoakStudy(cfg)
			if !r.Passed() {
				soakFailed = true
			}
			return r.Render()
		})
	}

	section("ablations", func() string {
		return experiments.AblationBestExternal(env()).Render() + "\n" +
			experiments.AblationLocalPref(env()).Render() + "\n" +
			experiments.AblationGeoDBError(env()).Render()
	})

	// The conformance harness: run embedded scenario specs (or one named
	// by -spec), print each canonical trace, and fail the process on any
	// invariant violation. -seeds N sweeps each spec across N seeds and
	// reports failures shrunk to their minimal event prefix; -seed/-numas
	// /-events override the spec for sweep repros.
	scenarioFailed := false
	section("scenario", func() string {
		names := scenario.Names()
		if *spec != "" {
			names = []string{*spec}
		}
		var b strings.Builder
		for _, name := range names {
			sp, err := scenario.Load(name)
			if err != nil {
				scenarioFailed = true
				fmt.Fprintf(&b, "FAIL %s: %v\n", name, err)
				continue
			}
			sp = sp.Truncate(*events)
			if *seed != 0 {
				sp.Seed = *seed
			}
			if *numAS != 0 {
				sp.NumAS = *numAS
			}
			if *seeds > 0 {
				sweep := make([]uint64, *seeds)
				for i := range sweep {
					sweep[i] = uint64(7 + i)
				}
				if fails := scenario.Sweep(sp, sweep); len(fails) > 0 {
					scenarioFailed = true
					for _, f := range fails {
						fmt.Fprintf(&b, "FAIL %s seed=%d events=%d/%d: %v\nrepro: %s\n",
							name, f.Seed, f.MinEvents, len(sp.Events), f.Err, f.Repro)
					}
				} else {
					fmt.Fprintf(&b, "PASS %s sweep seeds=%d\n", name, *seeds)
				}
				continue
			}
			res, err := scenario.Run(sp)
			b.WriteString(res.Trace)
			if err != nil {
				scenarioFailed = true
				fmt.Fprintf(&b, "FAIL %s: %v\n", name, err)
			} else {
				fmt.Fprintf(&b, "PASS %s\n", name)
			}
		}
		return b.String()
	})

	fmt.Fprintf(os.Stderr, "all requested experiments done in %v\n", time.Since(start).Round(time.Millisecond))
	if scenarioFailed || soakFailed {
		os.Exit(1)
	}
}
