package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// declaredFamilies is the one list of telemetry families the golden
// metric digest (testdata/golden/<spec>.metrics) covers, sorted by
// name. Only families whose values are behaviour — what the stack
// decided, published, carried or dropped — belong here; a family that
// counts work done to reach the same behaviour (assignments, skipped
// compiles, lookups) does not, so a refactor that changes how much work
// a decision costs leaves every golden untouched. Everything not listed
// is invisible to the goldens: adding a counter anywhere is a zero-line
// golden diff (TestUndeclaredMetricLeavesGoldensUnchanged).
var declaredFamilies = []struct{ name, why string }{
	{"convergence_events_total", "routing-plane events opened, by kind"},
	{"core_egress_transitions_total", "egress withdrawals and restores the reflector accepted"},
	{"failover_link_down_events", "effective link-down transitions the failover controller acted on"},
	{"failover_link_up_events", "effective link-up transitions the failover controller acted on"},
	{"failover_restores", "egress routers restored after a PoP regained an adjacency"},
	{"failover_withdrawals", "egress routers withdrawn because their PoP was isolated"},
	{"fib_compiles_total", "FIB publishes that rebuilt the trie, per PoP"},
	{"fib_delta_compiles_total", "FIB publishes that did not rebuild the trie, per PoP"},
	{"flowsim_delivered_total", "flowsim conservation: packets delivered"},
	{"flowsim_drops_total", "flowsim conservation: packets dropped, by cause"},
	{"flowsim_scheduled_total", "flowsim conservation: packets emitted"},
	{"health_session_downs", "liveness sessions the detector declared down"},
	{"health_session_ups", "liveness sessions the detector declared up"},
	{"netsim_link_drops_total", "fabric drop partition, by link and cause"},
	{"netsim_link_tx_packets_total", "packets each fabric link carried"},
	{"rib_best_changes_total", "Loc-RIB best paths the reflector's ingest moved"},
}

func declared(family string) bool {
	i := sort.Search(len(declaredFamilies), func(i int) bool { return declaredFamilies[i].name >= family })
	return i < len(declaredFamilies) && declaredFamilies[i].name == family
}

// metricsCheckpoint appends one checkpoint to the metric digest: a hash
// over the declared families' deterministic exposition lines, plus the
// tracer's span count. Zero-valued samples are left out, so a family
// that is registered but never moved reads the same as one that does
// not exist yet — when a handle gets registered is inventory, not
// behaviour. The final checkpoint adds one line per declared family
// (sample sum and per-family hash), so a diverged digest names the
// family that moved.
func (e *engine) metricsCheckpoint(cp int, final bool) {
	byFamily := make(map[string][]string)
	var all strings.Builder
	for _, line := range strings.Split(e.Telemetry.Snapshot(), "\n") {
		i := strings.IndexAny(line, "{ ")
		if i < 0 || !declared(line[:i]) || strings.HasSuffix(line, " 0") {
			continue
		}
		byFamily[line[:i]] = append(byFamily[line[:i]], line)
		all.WriteString(line)
		all.WriteByte('\n')
	}
	fmt.Fprintf(&e.metrics, "cp=%d spans=%d digest=%016x\n", cp, e.Tracer.Len(), fnv64a(all.String()))
	if !final {
		return
	}
	for _, f := range declaredFamilies {
		lines := byFamily[f.name]
		sum := 0.0
		for _, line := range lines {
			// The value is the registry's own float rendering; it parses.
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
		fmt.Fprintf(&e.metrics, "  %s sum=%s digest=%016x\n",
			f.name, strconv.FormatFloat(sum, 'f', -1, 64), fnv64a(strings.Join(lines, "\n")))
	}
}

// fnv64a is the 64-bit FNV-1a of s, inlined so the digest's definition
// is pinned here rather than borrowed from hash/fnv's Sum ordering.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
