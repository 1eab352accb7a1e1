package experiments

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/detsort"
	"vns/internal/fib"
	"vns/internal/flowsim"
	"vns/internal/geo"
	"vns/internal/geoip"
	"vns/internal/loss"
	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// The soak study is the continuous-performance harness: it drives a
// full-Internet-shaped table (internetPrefixes) through the daemon's
// GeoRR and core.Reflector into a delta-compiling FIB, and the
// million-flow aggregate population (flow study's load), at the same
// time for a configurable wall duration, while self-scraping its own
// /metrics endpoint over loopback HTTP on a fixed interval into
// schema-stable JSONL. Ingest stages every churn UPDATE's convergence
// event (ingest → georr → select → fib_compile → forwarding), and the
// stages must tile the observed end-to-end latency — the run fails if
// the summed stages drift more than 5% from the end-to-end totals, if
// a scrape interval is missed, or if any counter moves backwards.

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

// withDefaults gives each zero or negative field its default.
func (c SoakConfig) withDefaults() SoakConfig {
	c.Prefixes = cmp.Or(max(c.Prefixes, 0), 400_000)
	c.Flows = cmp.Or(max(c.Flows, 0), 1_000_000)
	c.DurationSec = cmp.Or(max(c.DurationSec, 0), 30)
	c.ScrapeIntervalSec = cmp.Or(max(c.ScrapeIntervalSec, 0), 1)
	c.Seed = cmp.Or(c.Seed, 0x51B5CA1E)
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
	WallSec  float64

	// The full-table load: its wall seconds through Ingest, and the
	// initial full FIB compile.
	LoadSec, LoadCompileSec float64

	// Churn side: UPDATEs ingested (one convergence event each), ops
	// they carried, and the Loc-RIB's best-path changes.
	Events, OpsApplied, BestChanged uint64
	// TotalConvSec and StageSumSec are the summed end-to-end and
	// summed per-stage convergence seconds across every churn event;
	// AdditivityErr is their relative difference (must be <= 0.05).
	TotalConvSec, StageSumSec, AdditivityErr float64

	// Flow side.
	FlowTotals       flowsim.Totals
	FlowConservation error
	SimSec           float64

	// Scrape side.
	Scrapes, ScrapeGaps, ConservationViolations int

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

	// Routing plane: the daemon's GeoRR and Reflector over a
	// full-Internet-shaped table, each router's whole table announced
	// through Ingest as a session reset would, every UPDATE its own
	// "update" convergence event.
	plane := newSoakPlane(cfg.Prefixes, reg, conv)
	res.Prefixes = len(plane.prefixes)
	t0 := wallNow()
	plane.load()
	res.LoadSec = wallNow() - t0
	res.LoadCompileSec = plane.serve().CompileDuration().Seconds()

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
	var running sync.WaitGroup // the churn and flow clock drivers
	running.Add(2)

	best0, total0, stages0 := soakTotals(reg)
	go func() { // churn driver
		defer running.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(soakChurnPause): //vnslint:wallclock paces the sustained churn against real time
			}
			// One burst: soakBatchSize random announces and withdrawals,
			// one UPDATE per router that drew any.
			ups := make([]bgp.Update, len(plane.routers))
			for range soakBatchSize {
				pfx := plane.prefixes[int(rng.Float64()*float64(len(plane.prefixes)))]
				u := &ups[int(rng.Float64()*float64(len(ups)))]
				if rng.Float64() < 0.25 {
					u.Withdrawn = append(u.Withdrawn, pfx)
				} else {
					u.NLRI = append(u.NLRI, pfx)
				}
			}
			for i, u := range ups {
				if len(u.Withdrawn)+len(u.NLRI) > 0 {
					u.Attrs = plane.attrs[i]
					plane.ref.Ingest(plane.routers[i], u)
					res.Events++
				}
			}
			res.OpsApplied += soakBatchSize
		}
	}()

	go func() { // flow clock driver
		defer running.Done()
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
				res.SimSec = sim.Now()
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
			metrics, err := soakScrape(client, url)
			gap := err != nil || now.Sub(lastScrape) > interval+interval/2
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
				b, _ := json.Marshal(soakScrapeRecord{Seq: res.Scrapes, TSec: wallNow(), Gap: gap, Metrics: metrics})
				out.Write(append(b, '\n'))
			}
		}
	}

	close(stop)
	running.Wait()
	srv.Close()
	<-srvDone
	if out != nil {
		out.Flush()
	}

	best1, total1, stages1 := soakTotals(reg)
	res.BestChanged, res.TotalConvSec, res.StageSumSec = best1-best0, total1-total0, stages1-stages0
	res.WallSec = wallNow()
	res.FlowTotals = feng.Totals()
	res.FlowConservation = feng.CheckConservation()
	if res.TotalConvSec > 0 {
		res.AdditivityErr = math.Abs(res.TotalConvSec-res.StageSumSec) / res.TotalConvSec
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
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:sp]
		if !slices.ContainsFunc(soakScrapePrefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// soakTotals reads the running totals the churn gates compare from the
// families the deployment exposes: the Loc-RIB's best-path changes, and
// the end-to-end and summed per-stage convergence seconds.
func soakTotals(reg *telemetry.Registry) (bestChanges uint64, total, stages float64) {
	bestChanges = reg.Counter("rib_best_changes_total", "").Value()
	totals := reg.HistogramVec("convergence_seconds", "", nil, "kind")
	for _, k := range telemetry.ConvKinds {
		total += totals.With(k).Sum()
	}
	stageVec := reg.HistogramVec("convergence_stage_seconds", "", nil, "stage")
	for _, st := range telemetry.ConvStages {
		stages += stageVec.With(st).Sum()
	}
	return bestChanges, total, stages
}

// soakPoPs are the PoPs whose first egress router announces every
// prefix of the soak's table, so each prefix has a real decision to run.
var soakPoPs = []string{"LON", "ASH", "SIN", "SJS"}

// soakPlane is the soak's routing plane, built from the daemon's parts:
// a GeoRR over a GeoIP DB placing the table, with one egress router per
// soakPoPs entry, and the Reflector whose Loc-RIB feeds one FIB.
type soakPlane struct {
	prefixes []netip.Prefix
	routers  []netip.Addr
	attrs    []bgp.Attrs // what routers[i] announces with
	rr       *core.GeoRR
	ref      *core.Reflector
	fib      *fib.Engine
	compiles *vns.CompileRecorder
	conv     *telemetry.Convergence
}

// soakLoadChunk is the prefixes per UPDATE of the full-table load.
const soakLoadChunk = 8192

// newSoakPlane builds the plane over an n-prefix internetPrefixes table
// with metrics in reg and convergence events in conv. Geography comes
// from a fixed place list, as a generated table would be geolocated:
// one record per /16, cycling through the catalog's places; each /24
// resolves to its /16's record by longest-prefix match.
func newSoakPlane(n int, reg *telemetry.Registry, conv *telemetry.Convergence) *soakPlane {
	var places []geo.Place
	for _, r := range geo.Regions() {
		places = append(places, geo.PlacesInRegion(r)...)
	}
	s := &soakPlane{prefixes: internetPrefixes(n), conv: conv}
	db := geoip.New()
	for _, p := range s.prefixes {
		if p.Bits() == 16 {
			pl := places[db.Len()%len(places)]
			if err := db.Insert(geoip.Record{Prefix: p, Pos: pl.Pos, Country: pl.Country, Region: pl.Region}); err != nil {
				panic(err)
			}
		}
	}
	s.rr = core.New(core.Config{DB: db, Telemetry: reg})
	network := vns.NewNetwork()
	for i, code := range soakPoPs {
		pop := network.PoP(code)
		id := pop.Routers[0]
		s.rr.AddEgress(core.Egress{ID: id, Pos: pop.Place.Pos, PoP: code})
		s.routers = append(s.routers, id)
		s.attrs = append(s.attrs, bgp.Attrs{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{uint16(64500 + i)}}}, NextHop: id})
	}
	s.ref = core.NewReflector(s.rr, ReflectorID, reg, conv)
	s.fib = fib.NewEngine(1, nil)
	s.compiles = vns.NewCompileRecorder(reg, conv, true)
	return s
}

// load announces the whole table from every router in turn,
// soakLoadChunk prefixes an UPDATE.
func (s *soakPlane) load() {
	for i, id := range s.routers {
		for lo := 0; lo < len(s.prefixes); lo += soakLoadChunk {
			s.ref.Ingest(id, bgp.Update{Attrs: s.attrs[i], NLRI: s.prefixes[lo:min(lo+soakLoadChunk, len(s.prefixes))]})
		}
	}
}

// serve publishes the loaded table and returns that FIB, then, as the
// scenario harness's forwarding plane does after its load, subscribes
// to the GeoRR: each change set Ingest notifies is published, sorted
// and unique, its compile recorded against the event in flight.
func (s *soakPlane) serve() *fib.FIB {
	loaded := s.publish(s.prefixes)
	s.compiles.Record(0, loaded)
	s.rr.OnChangeBatch(func(changed []netip.Prefix) {
		set := slices.Clone(changed)
		slices.SortFunc(set, detsort.PrefixCompare)
		s.compiles.Record(s.conv.ActiveID(), s.publish(slices.Compact(set)))
	})
	return loaded
}

// publish publishes the Loc-RIB's best route for each of prefixes
// (sorted, unique) to the FIB; a prefix with none is withdrawn.
func (s *soakPlane) publish(prefixes []netip.Prefix) *fib.FIB {
	batch := make([]fib.Entry, len(prefixes))
	for i, p := range prefixes {
		batch[i].Prefix = p
		if r := s.ref.Best(p); r != nil {
			// Egress routers are 10.0.<PoP id>.<n> (vns.NewNetwork).
			batch[i].NextHop = fib.NextHop{PoP: int(r.PeerID.As4()[2]), Router: r.PeerID}
		}
	}
	return s.fib.Publisher().Publish(batch)
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
	fmt.Fprintf(&b, "Soak: %d prefixes × %d routers, %d flows, %.0fs wall (scrape every %.1fs)\n",
		r.Prefixes, len(soakPoPs), r.FlowTotals.Flows, r.WallSec, r.Cfg.ScrapeIntervalSec)
	fmt.Fprintf(&b, "  load: %d routes through Reflector.Ingest in %.3fs, initial FIB compile %.1fms\n",
		r.Prefixes*len(soakPoPs), r.LoadSec, 1e3*r.LoadCompileSec)
	fmt.Fprintf(&b, "  churn: %d UPDATE events, %d ops, %d best-path changes (%.0f events/s)\n",
		r.Events, r.OpsApplied, r.BestChanged, float64(r.Events)/max(r.WallSec, 1e-9))
	fmt.Fprintf(&b, "  convergence: end-to-end %.3fs vs stage sum %.3fs over every churn UPDATE (drift %.2f%%, gate 5%%)\n",
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
