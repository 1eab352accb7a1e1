package loss

import "math"

// Model decides, packet by packet, whether a packet is dropped. now is
// the simulated time in seconds since the start of the measurement day;
// models that are time-invariant ignore it.
type Model interface {
	// Drop reports whether a packet sent at simulated time now (seconds)
	// is lost.
	Drop(now float64) bool
	// Rate returns the model's long-run average loss probability at time
	// now, used by analytic summaries and calibration checks.
	Rate(now float64) float64
}

// None is a lossless model.
type None struct{}

func (None) Drop(float64) bool    { return false }
func (None) Rate(float64) float64 { return 0 }

// Uniform drops each packet independently with probability P.
type Uniform struct {
	P   float64
	rng *RNG
}

// NewUniform returns an independent (Bernoulli) loss model.
func NewUniform(p float64, rng *RNG) *Uniform {
	return &Uniform{P: p, rng: rng}
}

func (u *Uniform) Drop(float64) bool    { return u.rng.Bool(u.P) }
func (u *Uniform) Rate(float64) float64 { return u.P }

// GilbertElliott is the classic two-state bursty loss model. The chain
// sits in a Good state with loss probability PGood or a Bad state with
// loss probability PBad, transitioning with probabilities PGoodToBad and
// PBadToGood per packet. Long Bad sojourns produce the temporally
// dependent (bursty) loss the paper observes on congested transit paths.
type GilbertElliott struct {
	PGoodToBad float64 // per-packet transition probability G->B
	PBadToGood float64 // per-packet transition probability B->G
	PGood      float64 // loss probability while in Good
	PBad       float64 // loss probability while in Bad

	rng *RNG
	bad bool
}

// NewGilbertElliott constructs the model in the Good state.
func NewGilbertElliott(gToB, bToG, pGood, pBad float64, rng *RNG) *GilbertElliott {
	return &GilbertElliott{
		PGoodToBad: gToB, PBadToGood: bToG, PGood: pGood, PBad: pBad, rng: rng,
	}
}

// Drop advances the chain one packet and reports loss.
func (g *GilbertElliott) Drop(float64) bool {
	if g.bad {
		if g.rng.Bool(g.PBadToGood) {
			g.bad = false
		}
	} else {
		if g.rng.Bool(g.PGoodToBad) {
			g.bad = true
		}
	}
	if g.bad {
		return g.rng.Bool(g.PBad)
	}
	return g.rng.Bool(g.PGood)
}

// Rate returns the stationary loss probability of the chain.
func (g *GilbertElliott) Rate(float64) float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		if g.bad {
			return g.PBad
		}
		return g.PGood
	}
	pb := g.PGoodToBad / denom // stationary probability of Bad
	return pb*g.PBad + (1-pb)*g.PGood
}

// Diurnal scales an underlying model's loss by a time-of-day factor,
// producing the daily congestion pattern of Figure 12. The factor peaks
// during the destination region's busy hours.
//
// The multiplier follows 1 + Amplitude * max(0, sin(...)) shaped around
// PeakHourUTC with the given width, so loss at night drops to the base
// rate and climbs during the busy period.
type Diurnal struct {
	Base        Model
	Amplitude   float64 // peak multiplier is 1+Amplitude
	PeakHourUTC float64 // hour of day [0,24) of the busy-hour peak
	WidthHours  float64 // half-width of the busy period
	rng         *RNG
}

// NewDiurnal wraps base with a diurnal congestion multiplier.
func NewDiurnal(base Model, amplitude, peakHourUTC, widthHours float64, rng *RNG) *Diurnal {
	return &Diurnal{Base: base, Amplitude: amplitude, PeakHourUTC: peakHourUTC,
		WidthHours: widthHours, rng: rng}
}

// Factor returns the congestion multiplier at simulated time now.
func (d *Diurnal) Factor(now float64) float64 {
	hour := math.Mod(now/3600, 24)
	if hour < 0 {
		hour += 24
	}
	// Circular distance from the peak hour.
	dist := math.Abs(hour - d.PeakHourUTC)
	if dist > 12 {
		dist = 24 - dist
	}
	if dist >= d.WidthHours {
		return 1
	}
	// Raised-cosine bump: smooth rise and fall around the peak.
	return 1 + d.Amplitude*0.5*(1+math.Cos(math.Pi*dist/d.WidthHours))
}

// Drop scales the base model's decision by the diurnal factor: during
// busy hours extra independent loss is layered on top of the base model.
func (d *Diurnal) Drop(now float64) bool {
	if d.Base.Drop(now) {
		return true
	}
	extra := d.Base.Rate(now) * (d.Factor(now) - 1)
	return d.rng.Bool(extra)
}

func (d *Diurnal) Rate(now float64) float64 {
	base := d.Base.Rate(now)
	return math.Min(1, base*d.Factor(now))
}

// BurstEvents injects rare, short, intense loss bursts on top of a base
// model, modeling routing-convergence events (the Figure 10 upper-left
// outliers: large loss concentrated in one or two 5-second slots).
type BurstEvents struct {
	Base      Model
	RatePerHr float64 // expected events per hour
	DurSec    float64 // event duration in seconds
	PDuring   float64 // loss probability during an event

	rng       *RNG
	nextStart float64
	nextEnd   float64
	inited    bool
}

// NewBurstEvents wraps base with Poisson-arriving loss bursts.
func NewBurstEvents(base Model, ratePerHr, durSec, pDuring float64, rng *RNG) *BurstEvents {
	return &BurstEvents{Base: base, RatePerHr: ratePerHr, DurSec: durSec,
		PDuring: pDuring, rng: rng}
}

func (b *BurstEvents) schedule(after float64) {
	if b.RatePerHr <= 0 {
		b.nextStart = math.Inf(1)
		b.nextEnd = math.Inf(1)
		return
	}
	gap := b.rng.ExpFloat64() * 3600 / b.RatePerHr
	b.nextStart = after + gap
	b.nextEnd = b.nextStart + b.DurSec
}

// Drop reports loss, accounting for any active burst at time now.
func (b *BurstEvents) Drop(now float64) bool {
	if !b.inited {
		b.inited = true
		b.schedule(now)
	}
	for now >= b.nextEnd {
		b.schedule(b.nextEnd)
	}
	if now >= b.nextStart && now < b.nextEnd {
		if b.rng.Bool(b.PDuring) {
			return true
		}
	}
	return b.Base.Drop(now)
}

// Rate returns the time-averaged loss rate including burst contribution.
func (b *BurstEvents) Rate(now float64) float64 {
	burstShare := b.RatePerHr * b.DurSec / 3600 * b.PDuring
	return math.Min(1, b.Base.Rate(now)+burstShare)
}

// Compose returns a model that drops a packet if any submodel does.
// Useful for layering a lossy last mile over a lossy long haul.
type Compose []Model

func (c Compose) Drop(now float64) bool {
	dropped := false
	// Evaluate every submodel so their internal chains advance uniformly
	// regardless of short-circuiting.
	for _, m := range c {
		if m.Drop(now) {
			dropped = true
		}
	}
	return dropped
}

func (c Compose) Rate(now float64) float64 {
	keep := 1.0
	for _, m := range c {
		keep *= 1 - m.Rate(now)
	}
	return 1 - keep
}
