package experiments

import (
	"fmt"

	"vns/internal/detsort"
	"vns/internal/measure"
	"vns/internal/vns"
)

// The congruence analysis backs the paper's one-address-per-prefix
// probing methodology (§4.1): prefixes originated by the same AS are
// delay-closer to the same PoP, so probing one address per prefix (and
// implicitly one prefix per AS in Figure 6) does not mislead. The paper
// reports that at least 25% of an AS's prefixes agree with its modal
// closest PoP in 99% of ASes, and at least 90% agree in 60% of ASes.

// CongruenceResult summarizes per-AS prefix agreement.
type CongruenceResult struct {
	// MatchFractions holds, for each multi-prefix AS, the share of its
	// prefixes whose delay-closest PoP equals the AS's modal one.
	MatchFractions *measure.CDF
	// ASes is the number of multi-prefix ASes analyzed.
	ASes int
}

// CongruenceStudy computes, for every AS with at least two prefixes, how
// congruently its prefixes map to delay-closest PoPs.
func CongruenceStudy(e *Env) *CongruenceResult {
	// Group prefixes by origin AS.
	byOrigin := map[uint16][]int{}
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		byOrigin[pi.Origin] = append(byOrigin[pi.Origin], i)
	}

	var fracs []float64
	// Sorted by origin AS so the fraction series (and its CDF) is
	// reproducible run to run.
	for _, origin := range detsort.Keys(byOrigin) {
		idxs := byOrigin[origin]
		if len(idxs) < 2 {
			continue
		}
		counts := map[*vns.PoP]int{}
		total := 0
		for _, idx := range idxs {
			if p, _ := e.DelayBestPoP(&e.Topo.Prefixes[idx]); p != nil {
				counts[p]++
				total++
			}
		}
		if total < 2 {
			continue
		}
		modal := 0
		//vnslint:maprange max over ints; ties yield the same value, order cannot escape
		for _, c := range counts {
			if c > modal {
				modal = c
			}
		}
		fracs = append(fracs, float64(modal)/float64(total))
	}
	return &CongruenceResult{MatchFractions: measure.NewCDF(fracs), ASes: len(fracs)}
}

// ShareWithMatchAtLeast returns the fraction of ASes whose prefix
// agreement is at least f.
func (r *CongruenceResult) ShareWithMatchAtLeast(f float64) float64 {
	return r.MatchFractions.CCDFAt(f - 1e-9)
}

// Render prints the two headline numbers plus the CDF.
func (r *CongruenceResult) Render() string {
	tb := measure.NewTable("Prefix-to-PoP congruence within ASes (backs 1-address-per-prefix probing)",
		"Agreement", "share of ASes")
	for _, f := range []float64{0.25, 0.5, 0.75, 0.9, 1.0} {
		tb.AddRow(fmt.Sprintf(">=%.0f%%", f*100), measure.Pct(r.ShareWithMatchAtLeast(f)))
	}
	return tb.String() + fmt.Sprintf("multi-prefix ASes analyzed: %d\n", r.ASes)
}
