package main

import (
	"fmt"
	"strings"

	"vns/internal/fib"
	"vns/internal/telemetry"
)

// fibStatusLine renders one PoP's FIB counters for the periodic status
// log, with the forwarding plane's pending (dirty, not yet resolved)
// prefix count, which every PoP shares. Only deterministic fields appear
// here — the caller appends wall-clock extras like the last-compile
// age — so tests can golden-diff the output of a virtual-clock run.
func fibStatusLine(code string, s fib.Stats, pending int) string {
	return fmt.Sprintf("fib %s: prefixes=%d gen=%d compiles=%d deltas=%d skipped=%d pending=%d",
		code, s.Prefixes, s.Generation, s.Compiles, s.DeltaCompiles, s.SkippedCompiles, pending)
}

// convStatusLine renders the convergence event and per-stage
// observation counts — the deterministic half of the convergence status
// log, same split as fibStatusLine.
func convStatusLine(c *telemetry.Convergence) string {
	var b strings.Builder
	fmt.Fprintf(&b, "convergence: events=%d", c.Events())
	for _, s := range telemetry.ConvStages {
		fmt.Fprintf(&b, " %s=%d", s, c.StageCount(s))
	}
	return b.String()
}

// convQuantileSuffix renders the wall-clock p50/p99 stage latencies the
// caller appends after convStatusLine.
func convQuantileSuffix(c *telemetry.Convergence) string {
	var b strings.Builder
	for _, s := range telemetry.ConvStages {
		fmt.Fprintf(&b, " %s_p50=%.1fus %s_p99=%.1fus",
			s, c.StageQuantile(s, 0.5)*1e6, s, c.StageQuantile(s, 0.99)*1e6)
	}
	return b.String()
}
