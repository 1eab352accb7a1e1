package rib

import "vns/internal/telemetry"

// Metrics holds pre-resolved telemetry handles for one Loc-RIB, so the
// update path (one ApplyBatch per received UPDATE) pays atomic adds
// only. Attach with ShardedTable.SetMetrics; a table without metrics
// pays a single nil check per operation.
type Metrics struct {
	// Upserts and Withdraws count mutating operations that touched a
	// candidate; Reselects counts decision-process reruns; BestChanges
	// counts reselections whose best path changed by value (the events
	// that fan out as re-advertisements and FIB invalidations).
	Upserts     *telemetry.Counter
	Withdraws   *telemetry.Counter
	Reselects   *telemetry.Counter
	BestChanges *telemetry.Counter
	// Prefixes tracks the number of prefixes with at least one
	// candidate.
	Prefixes *telemetry.Gauge
}

// NewMetrics registers the RIB metric families in reg. Returns nil (a
// no-op) when reg is nil.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Upserts:     reg.Counter("rib_upserts_total", "route installs or replacements"),
		Withdraws:   reg.Counter("rib_withdraws_total", "candidate withdrawals that removed a route"),
		Reselects:   reg.Counter("rib_reselects_total", "decision-process reruns"),
		BestChanges: reg.Counter("rib_best_changes_total", "reselections whose best path changed by value"),
		Prefixes:    reg.Gauge("rib_prefixes_current", "prefixes with at least one candidate"),
	}
}
