package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vns/internal/loss"
	"vns/internal/telemetry"
)

// TestSoakStudyShort holds a CI-sized combined load for ~1.5 wall
// seconds and pins every soak gate: gap-free scraping, monotone
// counters, exact flow conservation, and stage additivity within 5%.
// The JSONL output must parse, carry the same metric schema every
// scrape, and include the convergence stage families.
func TestSoakStudyShort(t *testing.T) {
	var out bytes.Buffer
	res := SoakStudy(SoakConfig{
		Prefixes:          4000,
		Flows:             4000,
		DurationSec:       1.5,
		ScrapeIntervalSec: 0.25,
		Out:               &out,
	})

	t.Logf("stage additivity drift %.2f%% over %d UPDATE events", 100*res.AdditivityErr, res.Events)
	if !res.Passed() {
		t.Fatalf("soak gates failed:\n%s", res.Render())
	}
	if res.Events == 0 || res.BestChanged == 0 {
		t.Fatalf("vacuous churn: events=%d changed=%d", res.Events, res.BestChanged)
	}
	if res.Scrapes < 3 {
		t.Fatalf("scrapes = %d, want several in 1.5s at 0.25s interval", res.Scrapes)
	}
	if res.AdditivityErr > 0.05 {
		t.Errorf("stage additivity drift %.2f%% over 5%% gate", 100*res.AdditivityErr)
	}
	if res.LoadSec <= 0 || res.LoadCompileSec <= 0 {
		t.Errorf("full-table load: %vs, compile %vs, want both > 0", res.LoadSec, res.LoadCompileSec)
	}
	for _, s := range []string{"fib_compile", "select"} {
		if res.StageP99[s] <= 0 {
			t.Errorf("stage %s p99 = %v, want > 0 under load", s, res.StageP99[s])
		}
	}

	var schema []string
	lines := 0
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var rec struct {
			Seq     int                `json:"seq"`
			TSec    float64            `json:"t_sec"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("scrape %d: bad JSONL: %v", lines, err)
		}
		if rec.Seq != lines {
			t.Errorf("scrape %d has seq %d", lines, rec.Seq)
		}
		var names []string
		for name := range rec.Metrics {
			names = append(names, name)
		}
		if schema == nil {
			for _, want := range []string{
				`convergence_events_total{kind="update"}`,
				`convergence_stage_seconds_count{stage="fib_compile"}`,
				"flowsim_delivered_total",
				"soak_goroutines",
				"trace_dropped_total",
			} {
				if _, ok := rec.Metrics[want]; !ok {
					t.Errorf("first scrape missing %s", want)
				}
			}
			schema = names
		} else if len(names) != len(schema) {
			t.Errorf("scrape %d has %d metrics, first had %d — schema drifted",
				lines, len(names), len(schema))
		}
	}
	if lines != res.Scrapes {
		t.Errorf("JSONL lines = %d, want one per scrape (%d)", lines, res.Scrapes)
	}

	r := res.Render()
	for _, want := range []string{"  load: 16000 routes through Reflector.Ingest", "soak: PASS"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
}

// TestSoakPlaneFollowsGeography: after the load, the soak FIB sends
// each of 256 seeded /24s to a router that Assign gives the highest
// LOCAL_PREF of the four: the soak's geo step is the GeoRR's. Geography
// must decide most of them (one router strictly ahead), so an Assign
// that ranks nothing cannot pass.
func TestSoakPlaneFollowsGeography(t *testing.T) {
	s := newSoakPlane(20_000, telemetry.New(), nil)
	s.load()
	s.serve()
	rng := loss.NewRNG(47)
	decided := 0
	for checked := 0; checked < 256; {
		p := s.prefixes[int(rng.Float64()*float64(len(s.prefixes)))]
		if p.Bits() != 24 {
			continue
		}
		checked++
		nh, ok := s.fib.Lookup(p.Addr())
		if !ok {
			t.Fatalf("soak FIB has no route to %v", p)
		}
		lp, ties := s.rr.Assign(nh.Router, p).LocalPref, 0
		for _, r := range s.routers {
			switch other := s.rr.Assign(r, p).LocalPref; {
			case other > lp:
				t.Errorf("%v: FIB exits via %v (LOCAL_PREF %d), but Assign gives %v %d", p, nh.Router, lp, r, other)
			case other == lp && r != nh.Router:
				ties++
			}
		}
		if ties == 0 {
			decided++
		}
	}
	if decided < 200 {
		t.Errorf("geography decided %d of 256 prefixes, want >= 200", decided)
	}
}

// TestInternetPrefixesShape checks the soak's synthetic table generator:
// exact count, uniqueness, and cover/specific mixture.
func TestInternetPrefixesShape(t *testing.T) {
	ps := internetPrefixes(10_000)
	if len(ps) != 10_000 {
		t.Fatalf("len = %d, want 10000", len(ps))
	}
	seen := make(map[string]bool, len(ps))
	covers := 0
	for _, p := range ps {
		if seen[p.String()] {
			t.Fatalf("duplicate prefix %v", p)
		}
		seen[p.String()] = true
		if p.Bits() == 16 {
			covers++
		}
	}
	if covers == 0 {
		t.Error("no /16 covers generated")
	}
}
