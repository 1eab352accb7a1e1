package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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
	if res.LoadSelectSec <= 0 || res.LoadCompileSec <= 0 {
		t.Errorf("full-table load: select %vs, compile %vs, want both > 0", res.LoadSelectSec, res.LoadCompileSec)
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
				`convergence_events_total{kind="churn"}`,
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
	for _, want := range []string{"  load: 16000 routes through the sharded table", "soak: PASS"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
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
