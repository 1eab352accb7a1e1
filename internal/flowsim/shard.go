package flowsim

// The shard step is the engine's hot path: every epoch each shard walks
// its flow slab three times — emit (rate × dt with fractional carry),
// batch-process each group's aggregate through its links, then
// attribute the integer outcomes back to flows. All three passes are
// allocation-free; the CI budget test (bench_test.go) enforces both the
// per-flow ns ceiling and allocs/op == 0.

// flowState is one flow, stored by value in the shard slab: ~80 bytes,
// so a million flows cost ~80 MB and zero pointer-chasing.
type flowState struct {
	group uint32
	// emit is pass-1 scratch: this epoch's integer emission.
	emit    uint32
	ratePps float64
	carry   float64
	endAt   float64
	// Conservation counters: scheduled == delivered + the four drops.
	scheduled uint64
	delivered uint64
	dropLoss  uint64
	dropQueue uint64
	dropAdmin uint64
	dropLate  uint64
}

type shard struct {
	flows  []flowState
	totals []uint64 // per-group emission totals, indexed by group id
	lastAt float64
}

// stepShard runs one epoch for one shard at simulated time now.
//
//vnslint:hotpath
func (e *Engine) stepShard(s *shard, now float64) {
	dt := now - s.lastAt
	prev := s.lastAt
	s.lastAt = now
	if dt <= 0 {
		return
	}

	// Pass 1: emissions. A flow past its end time emits only the part
	// of the epoch it was alive for, then goes quiet (carry dropped:
	// sub-packet residue at teardown is not a packet).
	var shardScheduled uint64
	for i := range s.flows {
		f := &s.flows[i]
		f.emit = 0
		if f.endAt <= prev {
			continue
		}
		eff := dt
		if f.endAt < now {
			eff = f.endAt - prev
		}
		exp := f.ratePps*eff + f.carry
		n := uint64(exp + 1e-9)
		f.carry = exp - float64(n)
		if f.carry < 0 {
			f.carry = 0
		}
		if n == 0 {
			continue
		}
		f.emit = uint32(n)
		f.scheduled += n
		s.totals[f.group] += n
		shardScheduled += n
	}
	e.tot.Scheduled += shardScheduled

	// Pass 2: per-group aggregate transit. Each non-empty group batch
	// traverses its links once regardless of how many flows fed it.
	for gid, tot := range s.totals {
		if tot == 0 {
			continue
		}
		s.totals[gid] = 0
		e.processBatch(e.groups[gid], now, tot, &e.alloc[gid])
	}

	// Pass 3: attribute the batch outcomes back to flows. The category
	// cursor walks [delivered, loss, queue, admin, late] as flows
	// consume their emissions in slab order, so the integer partition
	// is exact in both directions (per flow and per category).
	for i := range s.flows {
		f := &s.flows[i]
		need := uint64(f.emit)
		if need == 0 {
			continue
		}
		a := &e.alloc[f.group]
		for need > 0 {
			for a.rem == 0 {
				a.cat++
				if a.cat >= len(a.counts) {
					panic("flowsim: batch attribution overran its categories")
				}
				a.rem = a.counts[a.cat]
			}
			take := need
			if a.rem < take {
				take = a.rem
			}
			switch a.cat {
			case 0:
				f.delivered += take
			case 1:
				f.dropLoss += take
			case 2:
				f.dropQueue += take
			case 3:
				f.dropAdmin += take
			case 4:
				f.dropLate += take
			}
			a.rem -= take
			need -= take
		}
	}
}

// processBatch pushes one group's epoch batch through its current mode
// (overlay multipath or direct) and fills a with the five-way outcome
// partition. It also updates the group's delay-sample accumulators and
// the engine totals.
func (e *Engine) processBatch(g *group, now float64, total uint64, a *batchAlloc) {
	*a = batchAlloc{total: total}

	if g.offloaded {
		e.processDirect(g, total, a)
	} else {
		e.processOverlay(g, now, total, a)
	}

	// The partition must account for the whole batch — anything else
	// silently corrupts per-flow conservation, so fail loudly.
	var sum uint64
	for _, c := range a.counts {
		sum += c
	}
	if sum != total {
		panic("flowsim: batch outcome does not partition the batch")
	}
	a.cat = 0
	a.rem = a.counts[0]

	g.scheduled += total
	g.delivered += a.counts[0]
	e.tot.Delivered += a.counts[0]
	e.tot.DropsLoss += a.counts[1]
	e.tot.DropsQueue += a.counts[2]
	e.tot.DropsAdmin += a.counts[3]
	e.tot.DropsLate += a.counts[4]
}

// processDirect models the offloaded mode: traffic bypasses the overlay
// entirely and sees the direct path's fixed delay and loss rate
// (deterministic, with fractional carry).
func (e *Engine) processDirect(g *group, total uint64, a *batchAlloc) {
	lost := uint64(0)
	if g.cfg.DirectLossRate > 0 {
		exp := g.cfg.DirectLossRate*float64(total) + g.directLossCarry
		lost = uint64(exp + 1e-9)
		if lost > total {
			lost = total
		}
		g.directLossCarry = exp - float64(lost)
		if g.directLossCarry < 0 {
			g.directLossCarry = 0
		}
	}
	delivered := total - lost
	a.counts[0] = delivered
	a.counts[1] = lost
	e.tot.DirectDelivered += delivered
	g.epochDelaySum += g.cfg.DirectMs * float64(delivered)
	g.epochDelivered += delivered
}

// processOverlay splits the batch across the group's paths, runs each
// subflow through its links, applies optional duplication repair, and
// models the receiver reorder buffer.
func (e *Engine) processOverlay(g *group, now float64, total uint64, a *batchAlloc) {
	paths := g.cfg.Paths

	// Split by cumulative weight so the integer shares sum exactly.
	var assigned [MaxPaths]uint64
	var cum float64
	var prevB uint64
	for j := range paths {
		cum += paths[j].Weight
		b := uint64(cum*float64(total) + 0.5)
		if j == len(paths)-1 || b > total {
			b = total
		}
		assigned[j] = b - prevB
		prevB = b
	}

	// Per-path transit: chain TransitAggregate across the links,
	// accumulating the mean delay and the cause-partitioned drops.
	var pathDelivered [MaxPaths]uint64
	var pathDelay [MaxPaths]float64
	var dropLoss, dropQueue, dropAdmin uint64
	for j := range paths {
		n := assigned[j]
		if n == 0 {
			continue
		}
		delay := paths[j].TailMs
		for _, l := range paths[j].Links {
			r := l.TransitAggregate(now, n, pktSize)
			dropLoss += r.DropsLoss
			dropQueue += r.DropsQueue
			dropAdmin += r.DropsAdmin
			delay += r.DelayMs
			n = r.Delivered
			if n == 0 {
				break
			}
		}
		pathDelivered[j] = n
		pathDelay[j] = delay
	}

	// Duplication repair: copies of the primary path's duplicated range
	// ride the second path; a copy whose original was lost repairs the
	// loss (delivered at the second path's delay), the rest are
	// discarded by the reorder buffer. Losses are assumed independent
	// across paths; all rounding carries live on the group.
	if g.cfg.DupFraction > 0 && len(paths) >= 2 && assigned[0] > 0 {
		df := g.cfg.DupFraction*float64(assigned[0]) + g.dupCarry
		d := uint64(df + 1e-9)
		if d > assigned[0] {
			d = assigned[0]
		}
		g.dupCarry = df - float64(d)
		if g.dupCarry < 0 {
			g.dupCarry = 0
		}
		if d > 0 {
			e.tot.DupSent += d
			n := d
			for _, l := range paths[1].Links {
				r := l.TransitAggregate(now, n, pktSize)
				n = r.Delivered
				if n == 0 {
					break
				}
			}
			copyDelivered := n

			// Primary losses falling inside the duplicated range.
			drops0 := assigned[0] - pathDelivered[0]
			lf := float64(drops0)*float64(d)/float64(assigned[0]) + g.dupLostCarry
			lostA := uint64(lf + 1e-9)
			if lostA > drops0 {
				lostA = drops0
			}
			if lostA > d {
				lostA = d
			}
			g.dupLostCarry = lf - float64(lostA)
			if g.dupLostCarry < 0 {
				g.dupLostCarry = 0
			}

			var both uint64
			if lostA > 0 {
				bf := float64(lostA)*float64(d-copyDelivered)/float64(d) + g.bothLostCarry
				both = uint64(bf + 1e-9)
				if both > lostA {
					both = lostA
				}
				g.bothLostCarry = bf - float64(both)
				if g.bothLostCarry < 0 {
					g.bothLostCarry = 0
				}
			}
			repaired := lostA - both
			if repaired > copyDelivered {
				repaired = copyDelivered
			}
			// Repairs convert drops back into deliveries on the second
			// path; the causes are debited loss-first (duplication is
			// loss protection). Link counters keep the raw drops — the
			// repair happens end-to-end, not on the wire.
			// A fixed-size array, not a slice literal: this runs per
			// group per epoch on the hot path, and []*uint64{...} would
			// heap-allocate its backing array each time (hotalloc).
			causes := [3]*uint64{&dropLoss, &dropQueue, &dropAdmin}
			r := repaired
			for _, c := range causes {
				take := r
				if *c < take {
					take = *c
				}
				*c -= take
				r -= take
			}
			repaired -= r // couldn't debit more than the causes held
			pathDelivered[1] += repaired
			e.tot.Repaired += repaired
			e.tot.DupDiscarded += copyDelivered - repaired
		}
	}

	// Receiver reorder buffer: the merged stream plays out at the
	// slowest usable subpath's delay; a subpath skewed beyond
	// MaxReorderMs past the fastest is unusable — its packets arrive
	// too late and are dropped.
	fastest := -1.0
	for j := range paths {
		if pathDelivered[j] > 0 && (fastest < 0 || pathDelay[j] < fastest) {
			fastest = pathDelay[j]
		}
	}
	var delivered, late uint64
	slowestUsable := fastest
	if fastest >= 0 {
		for j := range paths {
			if pathDelivered[j] == 0 {
				continue
			}
			if g.cfg.MaxReorderMs > 0 && pathDelay[j]-fastest > g.cfg.MaxReorderMs {
				late += pathDelivered[j]
				pathDelivered[j] = 0
				continue
			}
			if pathDelay[j] > slowestUsable {
				slowestUsable = pathDelay[j]
			}
			delivered += pathDelivered[j]
		}
		if len(paths) > 1 {
			for j := range paths {
				if pathDelivered[j] > 0 {
					e.tot.ReorderWaitMsSum += float64(pathDelivered[j]) * (slowestUsable - pathDelay[j])
				}
			}
			e.tot.ReorderDelivered += delivered
		}
	}

	a.counts[0] = delivered
	a.counts[1] = dropLoss
	a.counts[2] = dropQueue
	a.counts[3] = dropAdmin
	a.counts[4] = late

	if delivered > 0 {
		g.epochDelaySum += slowestUsable * float64(delivered)
		g.epochDelivered += delivered
	}
}
