package core

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

func mgmtSetup(t *testing.T) (*MgmtServer, *RRServer) {
	t.Helper()
	srv := wireRR(t)
	m, err := NewMgmtServer("127.0.0.1:0", srv, srv.GeoRR().SetEgressDown)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, srv
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
	for _, want := range []string{"AMS", "ASH", "HK", "end"} {
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

func TestMgmtOverTCP(t *testing.T) {
	m, _ := mgmtSetup(t)
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, "exempt 10.1.0.0/16")
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line) != "OK" {
		t.Errorf("response = %q", line)
	}
	fmt.Fprintln(conn, "stats")
	line, err = r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "peers=") {
		t.Errorf("stats response = %q", line)
	}
}
