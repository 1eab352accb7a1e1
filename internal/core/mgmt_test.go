package core

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func mgmtSetup(t *testing.T) (*Mgmt, *RRServer) {
	t.Helper()
	srv := wireRR(t)
	return NewMgmt(srv, srv.GeoRR().SetEgressDown), srv
}

func TestMgmtExecuteCommands(t *testing.T) {
	m, _ := mgmtSetup(t)
	cases := []struct {
		cmd  string
		want string
	}{
		{"exempt 10.1.0.0/16", "OK"},
		{"unexempt 10.1.0.0/16", "OK"},
		{"force 10.1.0.0/16 10.0.3.1", "OK"},
		{"unforce 10.1.0.0/16", "OK"},
		{"force 10.1.0.0/16 10.99.9.9", "ERR core: unknown egress 10.99.9.9"},
		{"force bad-prefix 10.0.3.1", "ERR bad prefix: bad-prefix"},
		{"force 10.1.0.0/16 nonsense", "ERR bad router id: nonsense"},
		{"show 10.9.0.0/16", "no route"},
		{"bogus", "ERR unknown command bogus"},
		{"", "ERR empty command"},
		{"force 10.1.0.0/16", "ERR usage: force <prefix> <egress-router>"},
	}
	for _, c := range cases {
		if got := m.Execute(c.cmd); got != c.want {
			t.Errorf("Execute(%q) = %q, want %q", c.cmd, got, c.want)
		}
	}
}

func TestMgmtStatsAndEgresses(t *testing.T) {
	m, _ := mgmtSetup(t)
	stats := m.Execute("stats")
	if !strings.Contains(stats, "peers=0") || !strings.Contains(stats, "routes=0") {
		t.Errorf("stats = %q", stats)
	}
	eg := m.Execute("egresses")
	if lines := strings.Split(eg, "\n"); len(lines) != 3 {
		t.Errorf("egresses answered %d lines, want one per router:\n%s", len(lines), eg)
	}
	for _, want := range []string{"AMS", "ASH", "HK"} {
		if !strings.Contains(eg, want) {
			t.Errorf("egresses missing %q:\n%s", want, eg)
		}
	}
}

func TestMgmtShowReflectedRoute(t *testing.T) {
	m, srv := mgmtSetup(t)
	ams := dialEgress(t, srv, "10.0.1.1")
	waitFor(t, "peer", func() bool { return srv.NumPeers() == 1 })
	sendRoute(t, ams, prefix("10.1.0.0/16"))
	waitFor(t, "route", func() bool { return srv.NumRoutes() == 1 })

	out := m.Execute("show 10.1.0.0/16")
	if !strings.Contains(out, "via 10.0.1.1") || !strings.Contains(out, "lp=") {
		t.Errorf("show = %q", out)
	}
	m.Execute("exempt 10.1.0.0/16")
	if out := m.Execute("show 10.1.0.0/16"); !strings.Contains(out, "exempt") {
		t.Errorf("show after exempt = %q", out)
	}
}

func TestMgmtStaticRequiresCover(t *testing.T) {
	m, srv := mgmtSetup(t)
	// No covering route yet: rejected.
	if got := m.Execute("static 10.1.200.0/24 10.0.3.1"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("static without cover = %q", got)
	}
	// Install the covering prefix, then the static is accepted.
	ams := dialEgress(t, srv, "10.0.1.1")
	waitFor(t, "peer", func() bool { return srv.NumPeers() == 1 })
	sendRoute(t, ams, prefix("10.1.0.0/16"))
	waitFor(t, "route", func() bool { return srv.NumRoutes() == 1 })
	if got := m.Execute("static 10.1.200.0/24 10.0.3.1"); got != "OK" {
		t.Errorf("static with cover = %q", got)
	}
	if got := m.Execute("stats"); !strings.Contains(got, "statics=1") {
		t.Errorf("stats = %q", got)
	}
	if got := m.Execute("unstatic 10.1.200.0/24 10.0.3.1"); got != "OK" {
		t.Errorf("unstatic = %q", got)
	}
}

// TestMgmtOverHTTP pins the /mgmt contract: a POSTed command line
// answers Execute's text, an ERR reply is a 400 with the same text, and
// neither another method nor an oversized body reaches Execute.
func TestMgmtOverHTTP(t *testing.T) {
	m, _ := mgmtSetup(t)
	cases := []struct {
		method, body string
		code         int
		want         string
	}{
		{http.MethodPost, "force 10.1.0.0/16 10.0.3.1", http.StatusOK, "OK\n"},
		{http.MethodPost, "force 10.1.0.0/16 10.99.9.9", http.StatusBadRequest, "ERR core: unknown egress 10.99.9.9\n"},
		{http.MethodPost, "stats", http.StatusOK, "peers=0 routes=0 processed=0 geo-misses=0 statics=0 egress-down=0\n"},
		{http.MethodGet, "unforce 10.1.0.0/16", http.StatusMethodNotAllowed, ""},
		{http.MethodPost, "show " + strings.Repeat("1", maxCommand), http.StatusRequestEntityTooLarge, ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest(c.method, "/mgmt", strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Errorf("%s %q: status %d, want %d", c.method, c.body, rec.Code, c.code)
		}
		if c.want != "" && rec.Body.String() != c.want {
			t.Errorf("%s %q: body %q, want %q", c.method, c.body, rec.Body.String(), c.want)
		}
	}
	if _, ok := m.srv.GeoRR().Policy().ForcedExit(prefix("10.1.0.0/16")); !ok {
		t.Error("the refused GET unforced 10.1.0.0/16")
	}
}
