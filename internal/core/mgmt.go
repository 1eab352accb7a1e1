package core

import (
	"bufio"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
)

// MgmtServer exposes the paper's management interface over a line-based
// TCP protocol, so operators (cmd/vnsctl) can correct the cases where
// geography picks the wrong exit:
//
//	force <prefix> <egress-router>   pin a prefix's exit PoP
//	unforce <prefix>                 remove the pin
//	exempt <prefix>                  exclude a prefix from geo-routing
//	unexempt <prefix>                re-enable geo-routing
//	static <prefix> <egress-router>  advertise a no-export more-specific
//	unstatic <prefix> <egress-router>
//	egress-down <egress-router>      drain an egress (liveness withdraw)
//	egress-up <egress-router>        restore a drained egress
//	show <prefix>                    current best route
//	egresses                         registered egress routers
//	stats                            counters
//
// Responses are a single "OK", "ERR <reason>", or data lines terminated
// by a blank line. Overrides reach the FIBs through the reflector's change
// notifications; drains change no route, so they go through the server's
// drain function, which in a deployment republishes every PoP's FIB
// (health.Controller.Drain).
type MgmtServer struct {
	srv   *RRServer
	drain func(router netip.Addr, down bool) bool
	ln    net.Listener
	wg    sync.WaitGroup

	closeOnce sync.Once
}

// NewMgmtServer starts the management listener on addr. drain takes an
// egress router out of service (down) or returns it and reports whether
// its state changed.
func NewMgmtServer(addr string, srv *RRServer, drain func(router netip.Addr, down bool) bool) (*MgmtServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &MgmtServer{srv: srv, drain: drain, ln: ln}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the listening address.
func (m *MgmtServer) Addr() string { return m.ln.Addr().String() }

// Close stops the listener.
func (m *MgmtServer) Close() error {
	var err error
	m.closeOnce.Do(func() {
		err = m.ln.Close()
		m.wg.Wait()
	})
	return err
}

func (m *MgmtServer) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				resp := m.Execute(sc.Text())
				if _, err := fmt.Fprintf(conn, "%s\n", resp); err != nil {
					return
				}
			}
		}()
	}
}

// Execute runs one management command and returns the response text
// (without trailing newline).
func (m *MgmtServer) Execute(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	rr := m.srv.GeoRR()
	pol := rr.Policy() // what show, egresses and stats read
	cmd := strings.ToLower(fields[0])

	parsePrefix := func(s string) (netip.Prefix, string) {
		p, err := netip.ParsePrefix(s)
		if err != nil {
			return netip.Prefix{}, "ERR bad prefix: " + s
		}
		return p, ""
	}
	parseAddr := func(s string) (netip.Addr, string) {
		a, err := netip.ParseAddr(s)
		if err != nil {
			return netip.Addr{}, "ERR bad router id: " + s
		}
		return a, ""
	}

	switch cmd {
	case "force", "static", "unstatic":
		if len(fields) != 3 {
			return "ERR usage: " + cmd + " <prefix> <egress-router>"
		}
		p, e := parsePrefix(fields[1])
		if e != "" {
			return e
		}
		a, e := parseAddr(fields[2])
		if e != "" {
			return e
		}
		switch cmd {
		case "force":
			if err := rr.ForceExit(p, a); err != nil {
				return "ERR " + err.Error()
			}
		case "static":
			// The wire server holds routes for covering prefixes; a
			// more-specific is accepted when any covering route exists.
			if err := rr.AddStatic(p, a, m.srv.hasCover); err != nil {
				return "ERR " + err.Error()
			}
		case "unstatic":
			rr.RemoveStatic(p, a)
		}
		return "OK"

	case "unforce", "exempt", "unexempt":
		if len(fields) != 2 {
			return "ERR usage: " + cmd + " <prefix>"
		}
		p, e := parsePrefix(fields[1])
		if e != "" {
			return e
		}
		switch cmd {
		case "unforce":
			rr.Unforce(p)
		case "exempt":
			rr.Exempt(p)
		case "unexempt":
			rr.Unexempt(p)
		}
		return "OK"

	case "egress-down", "egress-up":
		if len(fields) != 2 {
			return "ERR usage: " + cmd + " <egress-router>"
		}
		a, e := parseAddr(fields[1])
		if e != "" {
			return e
		}
		m.drain(a, cmd == "egress-down")
		return "OK"

	case "show":
		if len(fields) != 2 {
			return "ERR usage: show <prefix>"
		}
		p, e := parsePrefix(fields[1])
		if e != "" {
			return e
		}
		best := m.srv.Best(p)
		if best == nil {
			return "no route"
		}
		flags := ""
		if pol.IsExempt(p) {
			flags += " exempt"
		}
		if fa, ok := pol.ForcedExit(p); ok {
			flags += " forced=" + fa.String()
		}
		return fmt.Sprintf("%v via %v lp=%d%s", p, best.PeerID, best.LocalPref(), flags)

	case "egresses":
		var b strings.Builder
		for _, e := range pol.Egresses() {
			state := ""
			if pol.EgressDown(e.ID) {
				state = " down"
			}
			fmt.Fprintf(&b, "%s %v %v%s\n", e.PoP, e.ID, e.Pos, state)
		}
		b.WriteString("end")
		return b.String()

	case "stats":
		processed, misses := rr.Stats()
		return fmt.Sprintf("peers=%d routes=%d processed=%d geo-misses=%d statics=%d egress-down=%d",
			m.srv.NumPeers(), m.srv.NumRoutes(), processed, misses, len(pol.Statics()), len(pol.DownEgresses()))

	default:
		return "ERR unknown command " + cmd
	}
}
