package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"vns/internal/adaptive"
	"vns/internal/experiments"
	"vns/internal/flowsim"
	"vns/internal/vns"
)

// newAdminMux builds the admin HTTP surface:
//
//	/metrics      Prometheus text-format exposition of every subsystem
//	/trace        canonical JSONL span dump; ?from=POP&dst=ADDR records a
//	              fresh cross-layer route trace and returns just its spans
//	/adaptive     measured-delay routing state: overrides, damped
//	              prefixes, and (with ?paths=1) per-path estimates
//	/flows        aggregate flow engine state: totals, drop partition,
//	              reorder-buffer wait, per-group offload mode
//	/mgmt         the management interface: POST one command line
//	              (force, exempt, static, egress-down, show, ...)
//	/debug/pprof  the standard Go profiling endpoints
//
// The handlers read d, a deployment after Listen, per request. actl may
// be nil (adaptive routing disabled), as may feng (no -flows
// population). Split from startAdmin so tests can drive it through
// httptest.
func newAdminMux(d *experiments.Deployment, actl *adaptive.Controller, feng *flowsim.Engine) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, d.Telemetry.Render())
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		// Ring evictions are otherwise silent; the header lets clients
		// (vnsctl trace) tell a quiet system from a span dump with holes.
		w.Header().Set("X-Trace-Dropped", strconv.FormatUint(d.Tracer.Dropped(), 10))
		from, dst := r.URL.Query().Get("from"), r.URL.Query().Get("dst")
		if from == "" && dst == "" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			d.Tracer.WriteJSONL(w)
			return
		}
		// Network.PoP panics on unknown codes; scan instead so a bad
		// query string cannot take the daemon down.
		var pop *vns.PoP
		for _, p := range d.Net.PoPs {
			if p.Code == from {
				pop = p
				break
			}
		}
		if pop == nil {
			http.Error(w, fmt.Sprintf("unknown PoP %q", from), http.StatusBadRequest)
			return
		}
		addr, err := netip.ParseAddr(dst)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad dst %q: %v", dst, err), http.StatusBadRequest)
			return
		}
		id := d.Fwd.TraceRoute(pop, addr)
		if id == 0 {
			http.Error(w, "tracing disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, s := range d.Tracer.Spans() {
			if s.Trace == id {
				io.WriteString(w, s.JSON())
				io.WriteString(w, "\n")
			}
		}
	})

	mux.HandleFunc("/adaptive", func(w http.ResponseWriter, r *http.Request) {
		if actl == nil {
			http.Error(w, "adaptive routing disabled (start vnsd with -adaptive)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, renderAdaptive(actl, r.URL.Query().Get("paths") != ""))
	})

	mux.HandleFunc("/flows", func(w http.ResponseWriter, r *http.Request) {
		if feng == nil {
			http.Error(w, "aggregate flows disabled (start vnsd with -flows)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, renderFlows(feng))
	})

	mux.Handle("/mgmt", d.Mgmt)

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "vnsd admin: /metrics /trace[?from=POP&dst=ADDR] /adaptive[?paths=1] /flows /mgmt (POST a command) /debug/pprof/\n")
	})
	return mux
}

// renderAdaptive formats the controller's state for the /adaptive
// endpoint. Times are as of the last completed probe round: the admin
// goroutine must not read the simulated clock.
func renderAdaptive(actl *adaptive.Controller, withPaths bool) string {
	now := actl.LastRoundAt()
	st := actl.Status(now)
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive: prefixes=%d paths=%d samples=%d overrides=%d suppressed=%d t=%.1fs\n",
		st.Prefixes, st.Paths, st.Samples, len(st.Overrides), len(st.Suppressed), now)
	for _, o := range st.Overrides {
		fmt.Fprintf(&b, "override %v %s>%s router=%v adv=%.1fms\n",
			o.Prefix, o.GeoCode, o.Code, o.Router, o.AdvantageMs)
	}
	for _, s := range st.Suppressed {
		fmt.Fprintf(&b, "damped %v penalty=%.0f flips=%d\n", s.Prefix, s.Penalty, s.Flips)
	}
	if withPaths {
		for _, p := range actl.PathStates() {
			fmt.Fprintf(&b, "path %v %s rtt=%.1fms jitter=%.1fms samples=%d age=%.1fs\n",
				p.Prefix, p.Code, p.SmoothedMs, p.JitterMs, p.Samples, now-p.LastAt)
		}
	}
	return b.String()
}

// startAdmin serves the admin mux on addr and returns the server (shut
// down by the caller), the bound listener address, and a channel closed
// when the serve goroutine has fully exited — the join handle that
// makes shutdown deterministic instead of racing process exit against
// an orphaned accept loop.
func startAdmin(addr string, d *experiments.Deployment, actl *adaptive.Controller, feng *flowsim.Engine) (*http.Server, string, <-chan struct{}, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{
		Handler:           newAdminMux(d, actl, feng),
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("admin endpoint: %v", err)
		}
	}()
	return srv, ln.Addr().String(), done, nil
}
