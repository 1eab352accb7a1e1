package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vns/internal/bgp"
	"vns/internal/fib"
	"vns/internal/flowsim"
	"vns/internal/loss"
	"vns/internal/netsim"
	"vns/internal/rib"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// The soak study is the continuous-performance harness: it drives a
// full-Internet-shaped table (internetPrefixes) through the sharded RIB
// and a delta-compiling FIB publisher, and the million-flow aggregate
// population (flow study's load), at the same time for a configurable
// wall duration, while self-scraping its own /metrics endpoint over
// loopback HTTP on a fixed interval into schema-stable JSONL. Every churn burst is one convergence event whose
// stage decomposition (ingest → georr → select → fib_compile →
// forwarding) must tile the observed end-to-end latency — the run
// fails if the summed stages drift more than 5% from the end-to-end
// totals, if a scrape interval is missed, or if any counter moves
// backwards between scrapes.

// SoakConfig sizes the soak run. Zero fields take the defaults shown.
type SoakConfig struct {
	// Prefixes is the routing table size (default 400,000).
	Prefixes int
	// Flows is the concurrent aggregate-flow population (default
	// 1,000,000).
	Flows int
	// DurationSec is the wall-clock run length under sustained load
	// (default 30).
	DurationSec float64
	// ScrapeIntervalSec is the metrics self-scrape period (default 1).
	ScrapeIntervalSec float64
	// Seed drives the churn workload (default 0x51B5CA1E).
	Seed uint64
	// Out receives one JSON object per scrape (nil discards them).
	Out io.Writer
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Prefixes <= 0 {
		c.Prefixes = 400_000
	}
	if c.Flows <= 0 {
		c.Flows = 1_000_000
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 30
	}
	if c.ScrapeIntervalSec <= 0 {
		c.ScrapeIntervalSec = 1
	}
	if c.Seed == 0 {
		c.Seed = 0x51B5CA1E
	}
	return c
}

// The churn load: bursts of 64 routing transitions, 1 ms apart. The
// pacing is what makes the load *sustained* rather than a CPU saturation
// test: the scraper must keep its cadence alongside the churn, and an
// unpaced spin on a small machine starves it — which would report a
// harness artifact, not a system regression.
const (
	soakBatchSize  = 64
	soakChurnPause = time.Millisecond
)

// SoakResult is the soak run's outcome.
type SoakResult struct {
	Cfg SoakConfig

	Prefixes int
	Routes   int
	WallSec  float64

	// The full-table load, the run's first convergence event: its select
	// stage (every route through the sharded table's batched ingest) and
	// the initial full FIB compile, in wall seconds.
	LoadSelectSec, LoadCompileSec float64

	// Churn side.
	Events      uint64 // churn convergence events driven
	OpsApplied  uint64
	BestChanged uint64
	// TotalConvSec and StageSumSec are the summed end-to-end and
	// summed per-stage convergence seconds across every churn event;
	// AdditivityErr is their relative difference (must be <= 0.05).
	TotalConvSec  float64
	StageSumSec   float64
	AdditivityErr float64

	// Flow side.
	FlowTotals       flowsim.Totals
	FlowConservation error
	SimSec           float64

	// Scrape side.
	Scrapes                int
	ScrapeGaps             int
	ConservationViolations int

	// Stage latency summary (wall seconds) at the end of the run.
	StageP50, StageP99 map[string]float64
}

// soakScrapeRecord is one JSONL line; Metrics marshals with sorted
// keys, so the schema is stable scrape over scrape and run over run.
type soakScrapeRecord struct {
	Seq     int                `json:"seq"`
	TSec    float64            `json:"t_sec"`
	Gap     bool               `json:"gap"`
	Metrics map[string]float64 `json:"metrics"`
}

// soakScrapePrefixes selects the exposition families recorded into the
// JSONL: the convergence span layer, the routing/forwarding planes, the
// flow population, and the harness's own runtime collectors.
var soakScrapePrefixes = []string{"convergence_", "trace_", "fib_", "rib_", "flowsim_", "soak_"}

// SoakStudy runs the combined sustained load and returns the outcome.
func SoakStudy(cfg SoakConfig) *SoakResult {
	cfg = cfg.withDefaults()
	res := &SoakResult{Cfg: cfg}
	rng := loss.NewRNG(cfg.Seed)

	reg := telemetry.New()
	start := time.Now() //vnslint:wallclock the soak measures real sustained-load behavior
	wallNow := func() float64 {
		return time.Since(start).Seconds() //vnslint:wallclock the soak measures real sustained-load behavior
	}
	tracer := telemetry.NewTracer(wallNow, telemetry.DefaultTraceCap)
	conv := telemetry.NewConvergence(reg, tracer, wallNow)
	reg.MarkVolatile(telemetry.ConvVolatileFamilies...)
	reg.RegisterFunc("soak_goroutines", "live goroutines under soak load",
		telemetry.KindGauge, nil, func(emit func([]string, float64)) {
			emit(nil, float64(runtime.NumGoroutine()))
		})
	reg.RegisterFunc("soak_heap_alloc_bytes", "heap bytes in use under soak load",
		telemetry.KindGauge, nil, func(emit func([]string, float64)) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			emit(nil, float64(m.HeapAlloc))
		})
	reg.RegisterFunc("soak_gc_cycles_total", "completed GC cycles under soak load",
		telemetry.KindCounter, nil, func(emit func([]string, float64)) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			emit(nil, float64(m.NumGC))
		})
	reg.MarkVolatile("soak_goroutines", "soak_heap_alloc_bytes", "soak_gc_cycles_total")

	// Routing plane: a full-Internet-shaped sharded table whose changed
	// prefixes' best routes are published to one compiled FIB, compiles
	// attributed back to the in-flight convergence event — the same
	// event-ID round trip the deployment runs, minus the TCP.
	prefixes := internetPrefixes(cfg.Prefixes)
	res.Prefixes = len(prefixes)
	res.Routes = len(prefixes) * synthPeers
	table := rib.NewSharded(0)
	table.SetMetrics(rib.NewMetrics(reg))

	// The synthetic geo step: localpref from the prefix's address bits,
	// standing in for the geoip lookup + distance ranking the GeoRR
	// runs per announcement.
	geoPref := func(pfx netip.Prefix, peer int) uint32 {
		a := pfx.Addr().As4()
		h := uint32(a[0])*131 + uint32(a[1])*31 + uint32(a[2])*7 + uint32(peer)
		return 100 + h%400
	}

	// decide is the batch of best-route decisions for prefixes, given in
	// detsort.PrefixCompare order: no best route withdraws the prefix.
	decide := func(prefixes []netip.Prefix) []fib.Entry {
		batch := make([]fib.Entry, len(prefixes))
		for i, pfx := range prefixes {
			batch[i].Prefix = pfx
			if r := table.Best(pfx); r != nil {
				batch[i].NextHop = fib.NextHop{PoP: int(r.PeerID.As4()[3]), Router: r.PeerID}
			}
		}
		return batch
	}
	pub := fib.NewEngine(1, nil).Publisher()
	compiles := vns.NewCompileRecorder(reg, conv, true)

	// Full-table download, chunked like session resets, as one "update"
	// convergence event.
	const loadChunk = 8192
	ev := conv.Begin(telemetry.ConvUpdate)
	mark := ev.Mark()
	load := make([]rib.Op, 0, res.Routes)
	for _, pfx := range prefixes {
		for p := 0; p < synthPeers; p++ {
			load = append(load, rib.Announce(synthRoute(pfx, p)))
		}
	}
	ev.Stage(telemetry.StageIngest, mark)
	mark = ev.Mark()
	for i := range load {
		r := load[i].Route
		r.Attrs.LocalPref = geoPref(r.Prefix, int(r.PeerID.As4()[3])-1)
	}
	ev.Stage(telemetry.StageGeoRR, mark)
	mark = ev.Mark()
	t0 := wallNow()
	for lo := 0; lo < len(load); lo += loadChunk {
		hi := min(lo+loadChunk, len(load))
		table.ApplyBatch(load[lo:hi])
	}
	res.LoadSelectSec = wallNow() - t0
	ev.Stage(telemetry.StageSelect, mark)
	mark = ev.Mark()
	loaded := pub.Publish(decide(prefixes))
	compiles.Record(0, loaded)
	res.LoadCompileSec = loaded.CompileDuration().Seconds()
	ev.StageExclusive(telemetry.StageForwarding, mark)
	ev.Finish()

	// Flow plane: the million-flow aggregate population on its own
	// virtual clock, advanced in fixed slices per wall tick by its own
	// goroutine, sharing nothing with the churn driver but the
	// registry.
	sim := &netsim.Sim{}
	feng := flowsim.New(flowsim.Config{
		Sim:       sim,
		Offload:   flowsim.OffloadConfig{Enabled: true},
		Telemetry: reg,
	})
	addTemplateFlows(feng, cfg.Flows)

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	flowDone := make(chan struct{})
	var simSecBits atomic.Uint64

	go func() { // churn driver
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(soakChurnPause): //vnslint:wallclock paces the sustained churn against real time
			}
			ev := conv.Begin(telemetry.ConvChurn)
			mark := ev.Mark()
			ops := make([]rib.Op, 0, soakBatchSize)
			picks := make([]int, 0, soakBatchSize)
			for j := 0; j < soakBatchSize; j++ {
				pi := int(rng.Float64() * float64(len(prefixes)))
				peer := int(rng.Float64() * synthPeers)
				picks = append(picks, peer)
				if rng.Float64() < 0.25 {
					ops = append(ops, rib.WithdrawOp(prefixes[pi], synthPeerID(peer), synthPeerID(peer)))
				} else {
					ops = append(ops, rib.Announce(synthRoute(prefixes[pi], peer)))
				}
			}
			ev.Stage(telemetry.StageIngest, mark)
			mark = ev.Mark()
			for i := range ops {
				if r := ops[i].Route; r != nil {
					r.Attrs.LocalPref = geoPref(r.Prefix, picks[i]) + uint32(rng.Float64()*50)
				}
			}
			ev.Stage(telemetry.StageGeoRR, mark)
			mark = ev.Mark()
			changed := table.ApplyBatch(ops)
			ev.Stage(telemetry.StageSelect, mark)
			mark = ev.Mark()
			// The rib→fib boundary: the publish is recorded against the
			// active event, which attributes the compile back to it.
			// ApplyBatch's changed set is already sorted and unique, as
			// Publish's batch must be.
			compiles.Record(conv.ActiveID(), pub.Publish(decide(changed)))
			ev.StageExclusive(telemetry.StageForwarding, mark)
			total, stages := ev.Finish()
			res.Events++
			res.OpsApplied += uint64(len(ops))
			res.BestChanged += uint64(len(changed))
			res.TotalConvSec += total
			res.StageSumSec += stages
		}
	}()

	go func() { // flow clock driver
		defer close(flowDone)
		feng.Start()
		const wallTick = 100 * time.Millisecond
		const simSlice = 0.25            // simulated seconds per tick
		tick := time.NewTicker(wallTick) //vnslint:wallclock paces the virtual flow clock against real time
		defer tick.Stop()
		simT := 0.0
		for {
			select {
			case <-stop:
				feng.Stop()
				sim.RunAll()
				simSecBits.Store(uint64(sim.Now() * 1000))
				return
			case <-tick.C:
				simT += simSlice
				sim.Run(simT)
			}
		}
	}()

	// Scrape loop (this goroutine): loopback HTTP against our own
	// registry, one schema-stable JSONL record per interval, gap and
	// counter-conservation checks inline.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("soak: loopback listener: %v", err))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, reg.Render())
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	srvDone := make(chan struct{})
	go func() { defer close(srvDone); srv.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/metrics"

	var out *bufio.Writer
	if cfg.Out != nil {
		out = bufio.NewWriter(cfg.Out)
	}
	interval := time.Duration(cfg.ScrapeIntervalSec * float64(time.Second))
	scrapeTick := time.NewTicker(interval) //vnslint:wallclock the scrape cadence is the thing under test
	defer scrapeTick.Stop()
	deadline := time.After(time.Duration(cfg.DurationSec * float64(time.Second))) //vnslint:wallclock bounds the wall run length
	prev := make(map[string]float64)
	lastScrape := time.Now() //vnslint:wallclock gap detection compares real scrape spacing
	client := &http.Client{Timeout: interval}

run:
	for {
		select {
		case <-deadline:
			break run
		case <-scrapeTick.C:
			now := time.Now() //vnslint:wallclock gap detection compares real scrape spacing
			gap := now.Sub(lastScrape) > interval+interval/2
			metrics, err := soakScrape(client, url)
			if err != nil {
				gap = true
			}
			lastScrape = now
			res.Scrapes++
			if gap {
				res.ScrapeGaps++
			}
			for name, v := range metrics { //vnslint:maprange order-free: each sample compares only against its own previous value
				if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") {
					if p, ok := prev[name]; ok && v < p {
						res.ConservationViolations++
					}
					prev[name] = v
				}
			}
			if out != nil {
				rec := soakScrapeRecord{Seq: res.Scrapes, TSec: wallNow(), Gap: gap, Metrics: metrics}
				b, _ := json.Marshal(rec)
				out.Write(b)
				out.WriteByte('\n')
			}
		}
	}

	close(stop)
	<-churnDone
	<-flowDone
	srv.Close()
	<-srvDone
	if out != nil {
		out.Flush()
	}

	res.WallSec = wallNow()
	res.SimSec = float64(simSecBits.Load()) / 1000
	res.FlowTotals = feng.Totals()
	res.FlowConservation = feng.CheckConservation()
	if res.TotalConvSec > 0 {
		res.AdditivityErr = res.TotalConvSec - res.StageSumSec
		if res.AdditivityErr < 0 {
			res.AdditivityErr = -res.AdditivityErr
		}
		res.AdditivityErr /= res.TotalConvSec
	}
	res.StageP50 = make(map[string]float64, len(telemetry.ConvStages))
	res.StageP99 = make(map[string]float64, len(telemetry.ConvStages))
	for _, s := range telemetry.ConvStages {
		res.StageP50[s] = conv.StageQuantile(s, 0.5)
		res.StageP99[s] = conv.StageQuantile(s, 0.99)
	}
	return res
}

// soakScrape fetches and parses one exposition-text scrape, returning
// the samples under the recorded family prefixes.
func soakScrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, 256)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, valstr := line[:sp], line[sp+1:]
		keep := false
		for _, p := range soakScrapePrefixes {
			if strings.HasPrefix(name, p) {
				keep = true
				break
			}
		}
		if !keep {
			continue
		}
		v, err := strconv.ParseFloat(valstr, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// synthPeers is the number of egress routers advertising every prefix
// of the synthetic full-Internet table, so each prefix has a real
// decision to run.
const synthPeers = 4

// synthPeerID is the router ID of the soak's p-th synthetic peer.
func synthPeerID(p int) netip.Addr { return netip.AddrFrom4([4]byte{10, 255, 0, byte(1 + p)}) }

// synthRoute is the eBGP route the p-th synthetic peer announces for
// pfx; the soak's geo step sets its local preference.
func synthRoute(pfx netip.Prefix, peer int) *rib.Route {
	id := synthPeerID(peer)
	return &rib.Route{
		Prefix:   pfx,
		Attrs:    bgp.Attrs{HasLocalPref: true, NextHop: id},
		EBGP:     true,
		PeerAS:   uint16(64500 + peer),
		PeerID:   id,
		PeerAddr: id,
	}
}

// internetPrefixes builds an n-prefix set shaped like a full Internet
// table: dense /24 coverage under consecutive /8s plus /16 covers,
// concentrated so trie node count (memory) stays realistic. The set is
// in detsort.PrefixCompare order, as a publish batch must be.
func internetPrefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, 0, n)
	for a := 1; len(out) < n && a < 224; a++ {
		for b := 0; len(out) < n && b < 256; b++ {
			out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), 0, 0}), 16))
			for c := 0; len(out) < n && c < 256; c++ {
				out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), 0}), 24))
			}
		}
	}
	return out
}

// Passed reports whether the run met the soak gates: no scrape gaps, no
// counter conservation violations, exact flow conservation, and stage
// additivity within 5%.
func (r *SoakResult) Passed() bool {
	return r.ScrapeGaps == 0 && r.ConservationViolations == 0 &&
		r.FlowConservation == nil && r.AdditivityErr <= 0.05
}

// Render prints the soak outcome; the last line is "soak: PASS" or
// "soak: FAIL ..." for script-level gating.
func (r *SoakResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Soak: %d prefixes × %d peers, %d flows, %.0fs wall (scrape every %.1fs)\n",
		r.Prefixes, synthPeers, r.FlowTotals.Flows, r.WallSec, r.Cfg.ScrapeIntervalSec)
	fmt.Fprintf(&b, "  load: %d routes through the sharded table in %.3fs (select), initial FIB compile %.1fms\n",
		r.Routes, r.LoadSelectSec, 1e3*r.LoadCompileSec)
	fmt.Fprintf(&b, "  churn: %d events, %d ops, %d best-path changes (%.0f events/s)\n",
		r.Events, r.OpsApplied, r.BestChanged, float64(r.Events)/max(r.WallSec, 1e-9))
	fmt.Fprintf(&b, "  convergence: end-to-end %.3fs vs stage sum %.3fs over all events (drift %.2f%%, gate 5%%)\n",
		r.TotalConvSec, r.StageSumSec, 100*r.AdditivityErr)
	for _, s := range telemetry.ConvStages {
		fmt.Fprintf(&b, "  stage %-12s p50=%8.1fus  p99=%8.1fus\n", s, r.StageP50[s]*1e6, r.StageP99[s]*1e6)
	}
	t := r.FlowTotals
	fmt.Fprintf(&b, "  flows: %.1fs simulated, scheduled %d delivered %d drops=%d offloaded=%d\n",
		r.SimSec, t.Scheduled, t.Delivered,
		t.DropsLoss+t.DropsQueue+t.DropsAdmin+t.DropsLate, t.OffloadedFlows)
	if r.FlowConservation != nil {
		fmt.Fprintf(&b, "  flow conservation BROKEN: %v\n", r.FlowConservation)
	} else {
		fmt.Fprintf(&b, "  flow conservation: every flow balanced exactly\n")
	}
	fmt.Fprintf(&b, "  scrapes: %d, gaps=%d (gate 0), counter regressions=%d (gate 0)\n",
		r.Scrapes, r.ScrapeGaps, r.ConservationViolations)
	if r.Passed() {
		fmt.Fprintf(&b, "soak: PASS\n")
	} else {
		fmt.Fprintf(&b, "soak: FAIL gaps=%d regressions=%d additivity=%.2f%% conservation=%v\n",
			r.ScrapeGaps, r.ConservationViolations, 100*r.AdditivityErr, r.FlowConservation)
	}
	return b.String()
}
