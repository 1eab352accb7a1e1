package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vns/internal/adaptive"
	"vns/internal/experiments"
	"vns/internal/vns"
)

// newTestAdmin deploys a small environment the way main() does — wire
// reflector and management interface, forwarding plane, liveness and
// failover, tracer, and an adaptive controller on the same clock — and
// returns an httptest server on the admin mux.
func newTestAdmin(t *testing.T) (*httptest.Server, *experiments.Env) {
	t.Helper()
	d := experiments.NewEnv(experiments.Config{Seed: 7, NumAS: 64}).Deploy(vns.ForwardingConfig{})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(d.Close)
	env, sim := d.Env, d.Sim
	d.Monitor.Start()

	actl := adaptive.NewController(adaptive.Config{
		Sim:       sim,
		Probe:     env.AdaptiveProbe(),
		Sink:      env.RR,
		Telemetry: env.Telemetry,
	})
	for _, tr := range env.AdaptiveTracks() {
		if err := actl.Track(tr.Prefix, tr.Cands); err != nil {
			t.Fatalf("Track: %v", err)
		}
	}
	actl.Start()
	sim.Run(8)

	feng, err := setupFlows(d, 400, 25, true)
	if err != nil {
		t.Fatalf("setupFlows: %v", err)
	}
	sim.Run(12)

	srv := httptest.NewServer(newAdminMux(d, actl, feng))
	t.Cleanup(srv.Close)
	return srv, env
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminMetricsCoversSubsystems pins the acceptance criterion: the
// exposition must include families from every instrumented subsystem.
func TestAdminMetricsCoversSubsystems(t *testing.T) {
	srv, _ := newTestAdmin(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, family := range []string{
		"bgp_sessions_established",
		"rib_prefixes_current",
		"fib_forwarded_total",
		"health_hellos_tx",
		"netsim_link_tx_packets_total",
		"media_packets_sent_total",
		"core_assignments_total",
	} {
		if !strings.Contains(body, "\n"+family) && !strings.HasPrefix(body, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(body, "# TYPE bgp_sessions_established gauge") {
		t.Errorf("missing TYPE comment for bgp_sessions_established")
	}
}

func TestAdminTraceRoute(t *testing.T) {
	srv, env := newTestAdmin(t)
	dst := env.Topo.Prefixes[0].Prefix.Addr()

	code, body := get(t, srv.URL+"/trace?from=LON&dst="+dst.String())
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d, body %q", code, body)
	}
	for _, layer := range []string{`"layer":"trace"`, `"layer":"geoip"`, `"layer":"fib"`} {
		if !strings.Contains(body, layer) {
			t.Errorf("trace output missing %s:\n%s", layer, body)
		}
	}

	if code, _ := get(t, srv.URL+"/trace?from=NOPE&dst="+dst.String()); code != http.StatusBadRequest {
		t.Errorf("unknown PoP status = %d, want 400", code)
	}
	if code, _ := get(t, srv.URL+"/trace?from=LON&dst=junk"); code != http.StatusBadRequest {
		t.Errorf("bad dst status = %d, want 400", code)
	}

	// The unparameterized dump replays the ring, which now holds the
	// successful trace recorded above.
	code, dump := get(t, srv.URL+"/trace")
	if code != http.StatusOK || !strings.Contains(dump, `"layer":"trace"`) {
		t.Errorf("/trace dump status=%d missing spans:\n%s", code, dump)
	}

	// Every /trace response carries the ring's eviction count out of
	// band, so vnsctl can warn when a dump has holes.
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Dropped"); got != "0" {
		t.Errorf("X-Trace-Dropped = %q, want \"0\" on an unevicted ring", got)
	}
}

// TestAdminMgmt: the management interface is the admin endpoint's
// /mgmt, for POSTs only.
func TestAdminMgmt(t *testing.T) {
	srv, _ := newTestAdmin(t)
	resp, err := http.Post(srv.URL+"/mgmt", "text/plain", strings.NewReader("stats"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "peers=") {
		t.Errorf("POST /mgmt stats = %d %q, %v; want 200 peers=…", resp.StatusCode, body, err)
	}
	if code, _ := get(t, srv.URL+"/mgmt"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /mgmt status = %d, want 405", code)
	}
}

func TestAdminAdaptive(t *testing.T) {
	srv, _ := newTestAdmin(t)

	code, body := get(t, srv.URL+"/adaptive")
	if code != http.StatusOK {
		t.Fatalf("/adaptive status = %d, body %q", code, body)
	}
	if !strings.HasPrefix(body, "adaptive: prefixes=") {
		t.Errorf("/adaptive missing status header:\n%s", body)
	}
	// Eight probe rounds have run, so the summary must reflect samples.
	if strings.Contains(body, "samples=0 ") {
		t.Errorf("/adaptive reports no samples after 8 rounds:\n%s", body)
	}

	code, body = get(t, srv.URL+"/adaptive?paths=1")
	if code != http.StatusOK {
		t.Fatalf("/adaptive?paths=1 status = %d", code)
	}
	if !strings.Contains(body, "\npath ") || !strings.Contains(body, "rtt=") {
		t.Errorf("/adaptive?paths=1 missing per-path lines:\n%s", body)
	}
}

func TestAdminAdaptiveDisabled(t *testing.T) {
	// Only the /adaptive handler touches the controller, so the
	// deployment can be empty for this probe.
	srv := httptest.NewServer(newAdminMux(&experiments.Deployment{}, nil, nil))
	defer srv.Close()

	code, body := get(t, srv.URL+"/adaptive")
	if code != http.StatusNotFound {
		t.Fatalf("/adaptive with nil controller status = %d, want 404", code)
	}
	if !strings.Contains(body, "adaptive routing disabled") {
		t.Errorf("404 body missing hint: %q", body)
	}
}

// TestAdminFlows exercises the /flows endpoint against a live engine:
// the status header, per-group lines with multipath and direct-delay
// figures, and real traffic counted after twelve simulated seconds.
func TestAdminFlows(t *testing.T) {
	srv, _ := newTestAdmin(t)

	code, body := get(t, srv.URL+"/flows")
	if code != http.StatusOK {
		t.Fatalf("/flows status = %d, body %q", code, body)
	}
	if !strings.HasPrefix(body, "flows=400 ") {
		t.Errorf("/flows missing totals header:\n%s", body)
	}
	if strings.Contains(body, "scheduled=0 ") {
		t.Errorf("/flows reports no traffic after 12 simulated seconds:\n%s", body)
	}
	for _, want := range []string{"group LON-AMS:", "group SIN-SJS:", "paths=2", "direct="} {
		if !strings.Contains(body, want) {
			t.Errorf("/flows missing %q:\n%s", want, body)
		}
	}
}

func TestAdminFlowsDisabled(t *testing.T) {
	srv := httptest.NewServer(newAdminMux(&experiments.Deployment{}, nil, nil))
	defer srv.Close()

	code, body := get(t, srv.URL+"/flows")
	if code != http.StatusNotFound {
		t.Fatalf("/flows with nil engine status = %d, want 404", code)
	}
	if !strings.Contains(body, "aggregate flows disabled") {
		t.Errorf("404 body missing hint: %q", body)
	}
}

// TestAdminIdleConnectionDoesNotBlockShutdown: clients that hold a
// connection open and send nothing more — one after a served request,
// one that never sent a byte — do not keep vnsd's shutdown (close the
// admin server, join its serve goroutine) waiting.
func TestAdminIdleConnectionDoesNotBlockShutdown(t *testing.T) {
	srv, addr, done, err := startAdmin("127.0.0.1:0", &experiments.Deployment{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	served, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	if _, err := io.WriteString(served, "GET /flows HTTP/1.1\r\nHost: vnsd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(served), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	stopped := make(chan struct{})
	go func() {
		srv.Close()
		<-done
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("admin shutdown still blocked 1 s after it began, on two idle connections")
	}
}
