package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vns/internal/experiments"
	"vns/internal/vns"
)

// TestRun drives vnsctl against an admin endpoint serving a small
// deployment's management interface and metrics, plus a /trace that
// reports evicted spans.
func TestRun(t *testing.T) {
	d := experiments.NewEnv(experiments.Config{Seed: 7, NumAS: 64}).Deploy(vns.ForwardingConfig{})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	mux := http.NewServeMux()
	mux.Handle("/mgmt", d.Mgmt)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, d.Telemetry.Render())
	})
	const spans = `{"trace":1,"layer":"trace"}` + "\n"
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Trace-Dropped", "3")
		io.WriteString(w, spans)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	admin := strings.TrimPrefix(srv.URL, "http://")

	p := d.Topo.Prefixes[0].Prefix.String()
	sin := d.Net.PoP("SIN").Routers[0].String()
	cases := []struct {
		args   []string
		code   int
		stdout func(string) bool
		stderr string
	}{
		{[]string{"force", p, sin}, 0, func(out string) bool { return out == "OK\n" }, ""},
		{[]string{"force", p, "10.99.9.9"}, 1, func(out string) bool { return out == "ERR core: unknown egress 10.99.9.9\n" }, ""},
		{[]string{"egresses"}, 0, func(out string) bool {
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			return len(lines) == len(d.RR.Policy().Egresses()) && !strings.Contains(out, "end")
		}, ""},
		{[]string{"metrics", "fib_"}, 0, func(out string) bool {
			for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
				name, _ := strings.CutPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
				if !strings.HasPrefix(name, "fib_") {
					return false
				}
			}
			return strings.Contains(out, "# TYPE fib_compiles_total")
		}, ""},
		{[]string{"trace"}, 0, func(out string) bool { return out == spans }, "trace dropped=3 spans evicted"},
		{[]string{"trace", "LON"}, 2, func(out string) bool { return out == "" }, "usage: vnsctl trace"},
		{nil, 2, func(out string) bool { return out == "" }, "usage: vnsctl [-admin host:port]"},
		{[]string{"flows"}, 1, func(out string) bool { return out == "" }, "404 page not found"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		code := run(append([]string{"-admin", admin}, c.args...), &stdout, &stderr)
		if code != c.code || !c.stdout(stdout.String()) || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("vnsctl %s: exit %d, stdout %q, stderr %q; want exit %d, stderr containing %q",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String(), c.code, c.stderr)
		}
	}
	if _, ok := d.RR.Policy().ForcedExit(d.Topo.Prefixes[0].Prefix); !ok {
		t.Errorf("vnsctl force %s %s left the prefix unforced", p, sin)
	}
}

// TestRunUnreachable: a daemon that does not answer is an error on
// stderr and exit 1, not a reply.
func TestRunUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	admin := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	var stdout, stderr strings.Builder
	if code := run([]string{"-admin", admin, "stats"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "vnsctl: ") {
		t.Errorf("vnsctl stats against a closed port: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
