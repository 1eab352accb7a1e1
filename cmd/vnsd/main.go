// Command vnsd runs the VNS control plane as real BGP over TCP: the geo
// route reflector listens for iBGP sessions, and (with -egress) the
// eleven PoPs' egress routers are spawned in-process, dial in, and
// announce their best-external routes from a synthetic Internet. The
// reflector assigns geo-based local preferences and reflects routes;
// cmd/vnsctl drives the management interface, which the admin HTTP
// endpoint serves as /mgmt beside /metrics and /trace.
//
//	vnsd -listen 127.0.0.1:1790 -admin 127.0.0.1:1792 -numas 800
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vns/internal/adaptive"
	"vns/internal/experiments"
	"vns/internal/flowsim"
	"vns/internal/health"
	"vns/internal/vns"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:1790", "BGP listen address of the route reflector")
	admin := flag.String("admin", "127.0.0.1:1792", "admin HTTP listen address (/metrics, /trace, /mgmt, /debug/pprof)")
	numAS := flag.Int("numas", 800, "synthetic Internet size")
	seed := flag.Uint64("seed", 1, "world seed")
	egress := flag.Bool("egress", true, "spawn in-process egress routers that dial the reflector")
	maxPrefixes := flag.Int("max-prefixes", 500, "prefixes each egress router announces (0 = all)")
	failLink := flag.String("faillink", "", "demo fault: L2 link to kill, as PoP codes like SIN-SYD")
	failAt := flag.Duration("failat", 15*time.Second, "when (simulated) to kill -faillink")
	failFor := flag.Duration("failfor", 30*time.Second, "how long (simulated) -faillink stays down")
	adaptiveOn := flag.Bool("adaptive", false, "probe path delays and override geography where measurements contradict it")
	adaptiveInterval := flag.Float64("adaptive-interval", 1.0, "adaptive probe round period (simulated seconds)")
	adaptiveBudget := flag.Int("adaptive-budget", 0, "adaptive probes per round (0 = every tracked path)")
	adaptiveMargin := flag.Float64("adaptive-margin", 0, "delay advantage (ms) required before overriding geography (0 = default)")
	flowsN := flag.Int("flows", 0, "aggregate conference flows over the fabric (0 = disabled)")
	flowsRate := flag.Float64("flows-rate", 25, "per-flow packet rate (pps) for -flows")
	flowsOffload := flag.Bool("flows-offload", true, "let -flows groups offload to the direct Internet when the overlay loses")
	flag.Parse()

	log.SetPrefix("vnsd: ")
	log.SetFlags(log.Ltime)

	// Convergence stages run on wall time (the families are volatile —
	// rendered on /metrics but excluded from deterministic snapshots),
	// unlike the tracer, whose simulated clock the status ticker advances
	// five simulated seconds per wall tick, so trace spans carry
	// deterministic timestamps. FIB recompiles are debounced: management
	// overrides and re-advertisements trigger incremental republishes.
	startedAt := time.Now() //vnslint:wallclock convergence stage latencies measure real compute
	d := experiments.NewEnv(experiments.Config{Seed: *seed, NumAS: *numAS}).Deploy(vns.ForwardingConfig{
		Debounce: 50 * time.Millisecond,
		ConvergenceClock: func() float64 {
			return time.Since(startedAt).Seconds() //vnslint:wallclock convergence stage latencies measure real compute
		},
	})
	env, fwd, healthSim := d.Env, d.Fwd, d.Sim
	for _, line := range strings.Split(env.Topo.ComputeStats().String(), "\n") {
		log.Printf("world: %s", line)
	}
	log.Printf("world: %d eBGP sessions to %d neighbors", len(env.Peering.Sessions()), len(env.Peering.Neighbors))
	log.Printf("forwarding plane: %d per-PoP FIBs compiled", len(fwd.Engines()))

	if err := d.Listen(*listen); err != nil {
		log.Fatalf("starting reflector: %v", err)
	}
	defer d.Close()
	w := d.Wire
	log.Printf("geo route reflector listening on %s (cluster id %v)", w.RR.Addr(), experiments.ReflectorID)

	// Measured-delay adaptive routing: probe rounds ride the health
	// clock, overrides land on the same reflector vnsctl manages.
	var actl *adaptive.Controller
	if *adaptiveOn {
		actl = adaptive.NewController(adaptive.Config{
			Sim:         healthSim,
			IntervalSec: *adaptiveInterval,
			Budget:      *adaptiveBudget,
			Stability:   adaptive.StabilityConfig{ApplyMarginMs: *adaptiveMargin},
			Probe:       env.AdaptiveProbe(),
			Sink:        env.RR,
			Telemetry:   env.Telemetry,
			Convergence: fwd.Convergence(),
		})
		tracks := env.AdaptiveTracks()
		for _, tr := range tracks {
			if err := actl.Track(tr.Prefix, tr.Cands); err != nil {
				log.Fatalf("adaptive: %v", err)
			}
		}
		actl.Start()
		st := actl.Status(healthSim.Now())
		log.Printf("adaptive: tracking %d prefixes over %d paths, interval %.1fs, budget %d",
			st.Prefixes, st.Paths, *adaptiveInterval, *adaptiveBudget)
	}

	// The aggregate flow population rides the same health clock: each
	// wall tick advances it five simulated seconds alongside liveness
	// and adaptive probing.
	var feng *flowsim.Engine
	if *flowsN > 0 {
		var err error
		feng, err = setupFlows(d, *flowsN, *flowsRate, *flowsOffload)
		if err != nil {
			log.Fatalf("flows: %v", err)
		}
		log.Printf("flows: %d aggregate flows at %.0f pps across %d conference pairs (offload=%v)",
			*flowsN, *flowsRate, len(conferencePairs), *flowsOffload)
	}

	adminSrv, adminAddr, adminDone, err := startAdmin(*admin, d, actl, feng)
	if err != nil {
		log.Fatalf("starting admin endpoint: %v", err)
	}
	defer func() {
		adminSrv.Close()
		<-adminDone // join the serve goroutine before exiting
	}()
	log.Printf("admin endpoint on http://%s (/metrics /trace /adaptive /flows /mgmt /debug/pprof)", adminAddr)

	// Liveness and failover: BFD-lite sessions over every L2 link of the
	// shared fabric, detected failures feeding the failover controller.
	mon, ctl := d.Monitor, d.Controller
	mon.Start()
	log.Printf("liveness: %d link sessions at %.0fms hellos, detect multiplier %d",
		len(mon.Sessions()), health.TxIntervalMs, health.Multiplier)

	if *failLink != "" {
		codes := strings.SplitN(strings.ToUpper(*failLink), "-", 2)
		if len(codes) != 2 {
			log.Fatalf("bad -faillink %q, want e.g. SIN-SYD", *failLink)
		}
		a, b := env.Net.PoP(codes[0]), env.Net.PoP(codes[1])
		d.Injector.LinkDownAt(failAt.Seconds(), a, b)
		d.Injector.LinkUpAt((*failAt + *failFor).Seconds(), a, b)
		log.Printf("fault demo: %s-%s down at t=%v for %v", a.Code, b.Code, *failAt, *failFor)
	}

	egressDone := make(chan struct{})
	if *egress {
		go func() {
			defer close(egressDone)
			sent, err := w.ConnectEgresses(*maxPrefixes)
			if err != nil {
				log.Printf("egress routers: %v", err)
				return
			}
			log.Printf("egress routers connected: %d announcements sent", sent)
		}()
	} else {
		close(egressDone)
	}
	defer func() { <-egressDone }() // join the connector before exiting

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			healthSim.Run(healthSim.Now() + 5)
			processed, misses := env.RR.Stats()
			log.Printf("status: peers=%d routes=%d processed=%d geo-misses=%d egress-down=%d",
				w.RR.NumPeers(), w.RR.NumRoutes(), processed, misses, len(env.RR.Policy().DownEgresses()))
			log.Printf("health: t=%.0fs sessions=%d down=%d hellos tx=%d rx=%d withdrawals=%d restores=%d",
				healthSim.Now(), len(mon.Sessions()), mon.DownSessions(),
				mon.Metrics().HellosTx.Value(), mon.Metrics().HellosRx.Value(),
				ctl.Metrics().Withdrawals.Value(), ctl.Metrics().Restores.Value())
			for _, eng := range fwd.Engines() {
				s := eng.Stats().FIB
				pop := env.Net.PoPByID(eng.PoP())
				log.Printf("%s last-compile=%v last-delta=%v", fibStatusLine(pop.Code, s, fwd.Pending()), s.LastCompile, s.LastDelta)
			}
			if conv := fwd.Convergence(); conv != nil && conv.Events() > 0 {
				log.Printf("%s%s", convStatusLine(conv), convQuantileSuffix(conv))
			}
			if actl != nil {
				st := actl.Status(healthSim.Now())
				log.Printf("adaptive: overrides=%d suppressed=%d samples=%d paths=%d",
					len(st.Overrides), len(st.Suppressed), st.Samples, st.Paths)
			}
			if feng != nil {
				log.Printf("%s", flowsStatusLine(feng))
			}
		case <-stop:
			log.Print("shutting down")
			return
		}
	}
}
