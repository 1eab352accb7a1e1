package netsim

import (
	"sync/atomic"

	"vns/internal/loss"
)

// Packet is one simulated datagram.
type Packet struct {
	// Seq is the sender-assigned sequence number.
	Seq uint32
	// Size is the wire size in bytes.
	Size int
	// SentAt is stamped by Path.Send.
	SentAt Time
}

// Link is one directed hop: propagation delay, serialization at a given
// bandwidth, FIFO queueing, optional random queueing jitter, and an
// attached loss model.
type Link struct {
	// Name identifies the link in diagnostics.
	Name string
	// PropDelayMs is the one-way propagation delay.
	PropDelayMs float64
	// BandwidthMbps bounds throughput; 0 means unconstrained (no
	// serialization or queueing delay).
	BandwidthMbps float64
	// QueueLimit bounds the FIFO: a packet whose queueing delay would
	// exceed QueueLimit packets' worth of serialization is tail-dropped.
	// 0 means unbounded.
	QueueLimit int
	// JitterMsSigma adds one-sided random queueing noise (|N(0,σ)|),
	// modeling cross-traffic on multiplexed links.
	JitterMsSigma float64
	// Loss drops packets stochastically. nil means lossless.
	Loss loss.Model

	rng       *loss.RNG
	busyUntil Time

	// adminDown models an administrative or physical fault: every packet
	// offered to the link is dropped until the link is brought back up.
	// Toggled by fault injection (internal/health.Injector).
	adminDown bool

	// Aggregate-transit (fluid) state, used only by TransitAggregate.
	// aggLossCarry accumulates fractional expected losses so the
	// deterministic aggregate loss converges to Loss.Rate over batches.
	// aggBacklogBytes is the fluid queue occupancy, drained at line rate
	// between batches; aggLastAt is the last drain time.
	aggLossCarry    float64
	aggBacklogBytes float64
	aggLastAt       Time
	// extraDelayMs is a transient delay spike added to every transit
	// (cross-ocean reroutes, brownouts); 0 means none.
	extraDelayMs float64

	// Statistics, updated per packet. The counters are atomic so a
	// monitoring goroutine (cmd/vnsd status ticks, test helpers asserting
	// on live traffic) can snapshot them while the simulation goroutine
	// is mid-transit; everything else on the Link remains single-threaded
	// sim state.
	txPackets  atomic.Uint64
	txBytes    atomic.Uint64
	drops      atomic.Uint64
	dropsLoss  atomic.Uint64
	dropsQueue atomic.Uint64
	dropsAdmin atomic.Uint64
}

// LinkStats is a snapshot of a link's lifetime counters, with drops
// attributed to their cause so monitoring and experiments can tell
// stochastic loss from congestion from faults.
type LinkStats struct {
	// TxPackets and TxBytes count traffic the link forwarded.
	TxPackets uint64
	TxBytes   uint64
	// Drops is the total packets dropped; the per-cause counters below
	// partition it.
	Drops uint64
	// DropsLoss were taken by the stochastic loss model, DropsQueue by
	// the FIFO tail drop, DropsAdmin by the link being administratively
	// down (fault injection).
	DropsLoss  uint64
	DropsQueue uint64
	DropsAdmin uint64
}

// NewLink constructs a link; rng drives its jitter and must be non-nil
// when JitterMsSigma > 0.
func NewLink(name string, propDelayMs, bandwidthMbps float64, lm loss.Model, rng *loss.RNG) *Link {
	return &Link{
		Name:          name,
		PropDelayMs:   propDelayMs,
		BandwidthMbps: bandwidthMbps,
		Loss:          lm,
		rng:           rng,
	}
}

// transit computes this hop's contribution for a packet entering at now:
// the total one-way delay in milliseconds, or dropped=true.
func (l *Link) transit(now Time, size int) (delayMs float64, dropped bool) {
	if l.adminDown {
		l.dropsAdmin.Add(1)
		l.drops.Add(1)
		return 0, true
	}
	if l.Loss != nil && l.Loss.Drop(now) {
		l.dropsLoss.Add(1)
		l.drops.Add(1)
		return 0, true
	}
	delayMs = l.PropDelayMs + l.extraDelayMs
	if l.BandwidthMbps > 0 {
		serMs := float64(size) * 8 / (l.BandwidthMbps * 1e6) * 1000
		start := now
		if l.busyUntil > start {
			queued := l.busyUntil - start
			if l.QueueLimit > 0 && queued > Time(float64(l.QueueLimit)*serMs/1000) {
				l.dropsQueue.Add(1)
				l.drops.Add(1)
				return 0, true // tail drop
			}
			start = l.busyUntil
		}
		finish := start + serMs/1000
		l.busyUntil = finish
		delayMs += (finish - now) * 1000
	}
	if l.JitterMsSigma > 0 && l.rng != nil {
		j := l.rng.NormFloat64() * l.JitterMsSigma
		if j < 0 {
			j = -j
		}
		delayMs += j
	}
	l.txPackets.Add(1)
	l.txBytes.Add(uint64(size))
	return delayMs, false
}

// Stats returns the link's lifetime counters with drops attributed to
// their cause (loss model, queue tail drop, or admin-down). It is safe
// to call from any goroutine while the simulation is running: each
// counter is loaded atomically, and the per-cause counter is always
// incremented before the Drops total, so a concurrent snapshot never
// shows Drops exceeding the sum of its causes. Exact equality
// (Drops == DropsLoss+DropsQueue+DropsAdmin) holds on any snapshot
// taken while the simulator is quiescent.
func (l *Link) Stats() LinkStats {
	// Load the total first: if a drop lands mid-snapshot, the causes
	// (written before the total) can only be >= the total we read.
	drops := l.drops.Load()
	return LinkStats{
		TxPackets:  l.txPackets.Load(),
		TxBytes:    l.txBytes.Load(),
		Drops:      drops,
		DropsLoss:  l.dropsLoss.Load(),
		DropsQueue: l.dropsQueue.Load(),
		DropsAdmin: l.dropsAdmin.Load(),
	}
}

// SetAdminDown administratively downs (or restores) the link. A downed
// link drops every packet; the drops are counted as DropsAdmin.
func (l *Link) SetAdminDown(down bool) { l.adminDown = down }

// AdminDown reports whether the link is administratively down.
func (l *Link) AdminDown() bool { return l.adminDown }

// SetExtraDelayMs installs (or, with 0, clears) a transient delay spike
// added to every packet's transit.
func (l *Link) SetExtraDelayMs(ms float64) { l.extraDelayMs = ms }

// ExtraDelayMs returns the currently installed delay spike.
func (l *Link) ExtraDelayMs() float64 { return l.extraDelayMs }

// Path is an ordered sequence of links from sender to receiver.
type Path struct {
	Links []*Link
}

// NewPath builds a path over the given links.
func NewPath(links ...*Link) *Path { return &Path{Links: links} }

// Send injects pkt at the path head at the current simulated time and
// schedules deliver when (and if) it survives all hops. If the packet is
// dropped, drop is invoked (when non-nil) with the link index.
func (p *Path) Send(sim *Sim, pkt Packet, deliver func(Packet), drop func(hop int)) {
	pkt.SentAt = sim.Now()
	p.forward(sim, pkt, 0, deliver, drop)
}

func (p *Path) forward(sim *Sim, pkt Packet, hop int, deliver func(Packet), drop func(int)) {
	if hop == len(p.Links) {
		if deliver != nil {
			deliver(pkt)
		}
		return
	}
	l := p.Links[hop]
	delayMs, dropped := l.transit(sim.Now(), pkt.Size)
	if dropped {
		if drop != nil {
			drop(hop)
		}
		return
	}
	sim.After(delayMs/1000, func() {
		p.forward(sim, pkt, hop+1, deliver, drop)
	})
}
