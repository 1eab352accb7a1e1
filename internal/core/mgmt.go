package core

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"

	"vns/internal/telemetry"
)

// Mgmt interprets the paper's management interface, so operators
// (cmd/vnsctl) can correct the cases where geography picks the wrong
// exit:
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
// A reply is one line, "OK", "ERR <reason>" or a datum, except that
// egresses answers one line per router. Overrides reach the FIBs through
// the reflector's change notifications, each inside one "mgmt"
// convergence event; drains change no route, so they
// go through the drain function, which in a deployment republishes
// every PoP's FIB (health.Controller.Drain). Mgmt has no listener of its
// own: vnsd serves it as /mgmt on its admin HTTP endpoint (ServeHTTP).
type Mgmt struct {
	srv   *RRServer
	drain func(router netip.Addr, down bool) bool
}

// NewMgmt returns the interpreter over srv. drain takes an egress router
// out of service (down) or returns it and reports whether its state
// changed.
func NewMgmt(srv *RRServer, drain func(router netip.Addr, down bool) bool) *Mgmt {
	return &Mgmt{srv: srv, drain: drain}
}

// maxCommand caps a POSTed command line: the longest command is a verb
// and two addresses.
const maxCommand = 1 << 10

// ServeHTTP runs the command line a POST carries as its body and replies
// with Execute's text and a newline: status 200, or 400 for an ERR
// reply. Any other method is refused with 405, so no GET can change
// routing.
func (m *Mgmt) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "ERR method "+r.Method+" not allowed: POST one command line", http.StatusMethodNotAllowed)
		return
	}
	line, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCommand))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "ERR reading command: "+err.Error(), status)
		return
	}
	reply := m.Execute(string(line))
	if strings.HasPrefix(reply, "ERR") {
		http.Error(w, reply, http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, reply+"\n") // a client that hung up needs no reply
}

// Execute runs one management command and returns the response text
// (without trailing newline).
func (m *Mgmt) Execute(line string) string {
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
	case "force", "static", "unstatic", "unforce", "exempt", "unexempt":
		usage, n := " <prefix>", 2
		if cmd == "force" || cmd == "static" || cmd == "unstatic" {
			usage, n = usage+" <egress-router>", 3
		}
		if len(fields) != n {
			return "ERR usage: " + cmd + usage
		}
		p, e := parsePrefix(fields[1])
		if e != "" {
			return e
		}
		var a netip.Addr
		if n == 3 {
			if a, e = parseAddr(fields[2]); e != "" {
				return e
			}
		}
		// One "mgmt" convergence event per override handed to the GeoRR:
		// its forwarding stage is the change notification the override
		// causes, compile time excluded, as a drain's is.
		ev := m.srv.convergence().Begin(telemetry.ConvMgmt)
		mark := ev.Mark()
		var err error
		switch cmd {
		case "force":
			err = rr.ForceExit(p, a)
		case "static":
			// The wire server holds routes for covering prefixes; a
			// more-specific is accepted when any covering route exists.
			err = rr.AddStatic(p, a, m.srv.hasCover)
		case "unstatic":
			rr.RemoveStatic(p, a)
		case "unforce":
			rr.Unforce(p)
		case "exempt":
			rr.Exempt(p)
		case "unexempt":
			rr.Unexempt(p)
		}
		ev.StageExclusive(telemetry.StageForwarding, mark)
		ev.Finish()
		if err != nil {
			return "ERR " + err.Error()
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
		var lines []string
		for _, e := range pol.Egresses() {
			state := ""
			if pol.EgressDown(e.ID) {
				state = " down"
			}
			lines = append(lines, fmt.Sprintf("%s %v %v%s", e.PoP, e.ID, e.Pos, state))
		}
		return strings.Join(lines, "\n")

	case "stats":
		processed, misses := rr.Stats()
		return fmt.Sprintf("peers=%d routes=%d processed=%d geo-misses=%d statics=%d egress-down=%d",
			m.srv.NumPeers(), m.srv.NumRoutes(), processed, misses, len(pol.Statics()), len(pol.DownEgresses()))

	default:
		return "ERR unknown command " + cmd
	}
}
