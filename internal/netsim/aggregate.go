package netsim

// Aggregate (fluid) link transit: instead of walking packets through the
// link one event at a time, a caller offers a whole batch of same-size
// packets at once and gets back how many survived, the mean one-way delay
// they saw, and a per-cause drop partition. This is the per-link batched
// processing that lets internal/flowsim carry millions of concurrent
// flows on the virtual clock.
//
// Semantics relative to the per-packet path (Link.transit):
//
//   - Loss is deterministic: the batch loses Loss.Rate(now)*pkts packets,
//     with the fractional remainder carried to the next batch
//     (aggLossCarry), so the long-run aggregate loss converges to exactly
//     the model's rate instead of sampling it. Bursty models still shape
//     the rate over time through Rate(now).
//   - Queueing is fluid: the link keeps a byte backlog drained at line
//     rate between batches. A batch first drains the elapsed interval,
//     then enqueues; bytes beyond the QueueLimit-derived cap are
//     tail-dropped. The reported delay is propagation + extra + the mean
//     queueing delay of the accepted bytes (backlog ahead of the batch
//     plus half the batch's own serialization).
//   - Jitter (JitterMsSigma) is intentionally not applied: it models
//     per-packet cross-traffic noise, which is meaningless for a batch
//     mean. Aggregate callers model delay spread at the path level.
//
// The same atomic statistics counters are updated with the same
// cause-before-total ordering as the per-packet path, so Stats(),
// monitoring, and the scenario conservation invariant cover aggregate
// traffic with no special cases.

// AggregateResult reports the fate of one offered batch. Delivered +
// DropsLoss + DropsQueue + DropsAdmin always equals the offered count.
type AggregateResult struct {
	// Delivered packets survived the hop.
	Delivered uint64
	// DelayMs is the mean one-way delay experienced by the delivered
	// packets (propagation + extra + fluid queueing). 0 when nothing was
	// delivered.
	DelayMs float64
	// Per-cause drop partition, mirroring LinkStats.
	DropsLoss  uint64
	DropsQueue uint64
	DropsAdmin uint64
}

// TransitAggregate offers pkts packets of size bytes each to the link at
// simulated time now and returns the batch outcome. It must be called
// from the simulation goroutine (it mutates the link's fluid queue
// state), with non-decreasing now across calls.
//
//vnslint:hotpath
func (l *Link) TransitAggregate(now Time, pkts uint64, size int) AggregateResult {
	var res AggregateResult
	if pkts == 0 {
		return res
	}
	if l.adminDown {
		res.DropsAdmin = pkts
		l.dropsAdmin.Add(pkts)
		l.drops.Add(pkts)
		return res
	}

	remaining := pkts

	// Deterministic loss with fractional carry.
	if l.Loss != nil {
		// Dynamic dispatch hotalloc cannot chase: every LossModel in the
		// tree (ConstantLoss, BurstLoss, schedule-driven) is pure float
		// arithmetic over receiver fields.
		rate := l.Loss.Rate(float64(now)) //vnslint:hotalloc

		if rate > 0 {
			if rate > 1 {
				rate = 1
			}
			exp := rate*float64(remaining) + l.aggLossCarry
			// The epsilon absorbs float accumulation error in the carry
			// (ten 0.1s summing to 0.999...), keeping whole losses exact.
			lost := uint64(exp + 1e-9)
			if lost > remaining {
				lost = remaining
			}
			l.aggLossCarry = exp - float64(lost)
			if l.aggLossCarry < 0 {
				l.aggLossCarry = 0
			}
			if lost > 0 {
				res.DropsLoss = lost
				l.dropsLoss.Add(lost)
				l.drops.Add(lost)
				remaining -= lost
			}
		}
	}

	delayMs := l.PropDelayMs + l.extraDelayMs
	if remaining > 0 && l.BandwidthMbps > 0 {
		bytesPerMs := l.BandwidthMbps * 1e6 / 8 / 1000
		// Drain the fluid queue for the interval since the last batch.
		if now > l.aggLastAt {
			drained := (now - l.aggLastAt) * 1000 * bytesPerMs
			l.aggBacklogBytes -= drained
			if l.aggBacklogBytes < 0 {
				l.aggBacklogBytes = 0
			}
		}
		l.aggLastAt = now

		accepted := remaining
		if l.QueueLimit > 0 {
			capBytes := float64(l.QueueLimit) * float64(size)
			room := capBytes - l.aggBacklogBytes
			if room < 0 {
				room = 0
			}
			fit := uint64(room / float64(size))
			if fit < accepted {
				dropped := accepted - fit
				res.DropsQueue = dropped
				l.dropsQueue.Add(dropped)
				l.drops.Add(dropped)
				accepted = fit
			}
		}
		if accepted > 0 {
			acceptedBytes := float64(accepted) * float64(size)
			// Mean queueing delay of the accepted bytes: everything already
			// in the queue, plus on average half the batch itself.
			delayMs += (l.aggBacklogBytes + acceptedBytes/2) / bytesPerMs
			l.aggBacklogBytes += acceptedBytes
		}
		remaining = accepted
	}

	if remaining > 0 {
		res.Delivered = remaining
		res.DelayMs = delayMs
		l.txPackets.Add(remaining)
		l.txBytes.Add(remaining * uint64(size))
	}
	return res
}
