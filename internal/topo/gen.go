package topo

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"vns/internal/geo"
	"vns/internal/loss"
)

// GenConfig controls the synthetic Internet generator.
type GenConfig struct {
	// Seed drives all randomness; equal configs generate equal
	// topologies.
	Seed uint64
	// NumAS is the total number of ASes (default 4000).
	NumAS int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.NumAS == 0 {
		c.NumAS = 4000
	}
	return c
}

// The AS population's shape.
const (
	// numLTP is the number of tier-1-like transit providers forming the
	// fully meshed core: the historical tier-1 clique size.
	numLTP = 12
	// fracSTP and fracCAHP are the fractions of NumAS that are small
	// transit providers and content/access/hosting providers; the
	// remainder (minus LTPs) are enterprise stubs.
	fracSTP  = 0.10
	fracCAHP = 0.22
	// transPacificFrac is the fraction of AP-region ASes that haul
	// traffic over their own trans-Pacific capacity to the US,
	// calibrated to reproduce Figure 3's AP displacement tail.
	transPacificFrac = 0.15
)

// regionWeights is the share of ASes homed in each region, loosely
// following registry allocation shares of the paper's era.
var regionWeights = []struct {
	region geo.Region
	weight float64
}{
	{geo.RegionEU, 0.34},
	{geo.RegionNA, 0.29},
	{geo.RegionAP, 0.21},
	{geo.RegionOC, 0.04},
	{geo.RegionSA, 0.05},
	{geo.RegionME, 0.04},
	{geo.RegionAF, 0.03},
}

// firstASN is the lowest generated ASN; low numbers are left free for
// the VNS AS and test fixtures.
const firstASN = 100

// prefixBase is the first address of the synthetic allocation space;
// prefixes are sequential /20s from here.
var prefixBase = netip.MustParseAddr("1.0.0.0")

// PrefixAt returns the i-th /20 of the synthetic allocation space.
func PrefixAt(i int) netip.Prefix {
	base := binary.BigEndian.Uint32(prefixBase.AsSlice())
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], base+uint32(i)<<12)
	return netip.PrefixFrom(netip.AddrFrom4(b), 20)
}

// Generate builds a synthetic Internet. The resulting topology is
// connected (every AS reaches the LTP core through provider links) and
// valley-free routable.
func Generate(cfg GenConfig) *Topology {
	cfg = cfg.withDefaults()
	rng := loss.NewRNG(cfg.Seed)

	t := &Topology{
		ASes:         make(map[uint16]*AS),
		prefixByAddr: make(map[netip.Prefix]*PrefixInfo),
	}

	numSTP := int(float64(cfg.NumAS) * fracSTP)
	numCAHP := int(float64(cfg.NumAS) * fracCAHP)
	numEC := cfg.NumAS - numLTP - numSTP - numCAHP
	if numEC < 0 {
		panic(fmt.Sprintf("topo: NumAS=%d too small for %d LTPs", cfg.NumAS, numLTP))
	}

	asn := uint16(firstASN)
	newAS := func(typ ASType) *AS {
		a := &AS{ASN: asn, Type: typ}
		t.ASes[asn] = a
		t.asns = append(t.asns, asn)
		asn++
		return a
	}

	// Pass 1: create ASes with regions and sites.
	var ltps, stps, cahps, ecs []*AS
	for i := 0; i < numLTP; i++ {
		a := newAS(LTP)
		a.Region = pickRegion(rng)
		a.Home = pickPlace(rng, a.Region)
		a.Sites = globalSites(rng, a.Home)
		ltps = append(ltps, a)
	}
	for i := 0; i < numSTP; i++ {
		a := newAS(STP)
		a.Region = pickRegion(rng)
		a.Home = pickPlace(rng, a.Region)
		a.Sites = regionalSites(rng, a.Region, a.Home, 1+rng.Intn(3))
		stps = append(stps, a)
	}
	for i := 0; i < numCAHP; i++ {
		a := newAS(CAHP)
		a.Region = pickRegion(rng)
		a.Home = pickPlace(rng, a.Region)
		a.Sites = regionalSites(rng, a.Region, a.Home, 1+rng.Intn(2))
		cahps = append(cahps, a)
	}
	for i := 0; i < numEC; i++ {
		a := newAS(EC)
		a.Region = pickRegion(rng)
		a.Home = pickPlace(rng, a.Region)
		a.Sites = []geo.Place{a.Home}
		ecs = append(ecs, a)
	}

	// Pass 2: relationships.
	// LTP core: full peer mesh.
	for i, a := range ltps {
		for _, b := range ltps[i+1:] {
			addPeer(a, b)
		}
	}
	stpsByRegion := groupByRegion(stps)
	cahpsByRegion := groupByRegion(cahps)

	// STPs buy transit from 1-3 LTPs and peer with 2-6 regional STPs.
	for _, a := range stps {
		for _, p := range pickDistinct(rng, ltps, 1+rng.Intn(3)) {
			addProviderCustomer(p, a)
		}
		local := stpsByRegion[a.Region]
		for _, p := range pickDistinct(rng, local, minInt(2+rng.Intn(5), len(local)-1)) {
			if p != a && !related(a, p) {
				addPeer(a, p)
			}
		}
	}

	// CAHPs buy from regional STPs (or an LTP when the region has no
	// STP) and peer lightly at regional IXPs.
	for _, a := range cahps {
		providers := providerPool(rng, stpsByRegion[a.Region], ltps)
		for _, p := range pickDistinct(rng, providers, 1+rng.Intn(3)) {
			if !related(a, p) {
				addProviderCustomer(p, a)
			}
		}
		local := cahpsByRegion[a.Region]
		for _, p := range pickDistinct(rng, local, rng.Intn(3)) {
			if p != a && !related(a, p) {
				addPeer(a, p)
			}
		}
	}

	// ECs buy from 1-2 regional transit networks (STP or CAHP).
	for _, a := range ecs {
		pool := make([]*AS, 0, 8)
		pool = append(pool, stpsByRegion[a.Region]...)
		pool = append(pool, cahpsByRegion[a.Region]...)
		if len(pool) == 0 {
			pool = ltps
		}
		for _, p := range pickDistinct(rng, pool, 1+rng.Intn(2)) {
			if !related(a, p) {
				addProviderCustomer(p, a)
			}
		}
	}

	// Pass 3: trans-Pacific flag for AP ASes. Iterate in ASN order, not
	// map order: the draw count is fixed either way, but map order would
	// randomize which ASes the draws land on.
	for _, n := range t.asns {
		a := t.ASes[n]
		if a.Region == geo.RegionAP && a.Type != LTP && rng.Bool(transPacificFrac) {
			a.TransPacific = true
		}
	}

	// Pass 4: prefixes with ground-truth locations.
	idx := 0
	for _, n := range t.asns {
		a := t.ASes[n]
		count := prefixCount(rng, a.Type)
		for i := 0; i < count; i++ {
			site := a.Sites[rng.Intn(len(a.Sites))]
			p := PrefixAt(idx)
			idx++
			pi := PrefixInfo{
				Prefix:  p,
				Origin:  a.ASN,
				Loc:     jitterNear(rng, site.Pos, 30),
				Country: site.Country,
				Region:  site.Region,
			}
			a.Prefixes = append(a.Prefixes, p)
			t.Prefixes = append(t.Prefixes, pi)
		}
	}
	for i := range t.Prefixes {
		t.prefixByAddr[t.Prefixes[i].Prefix] = &t.Prefixes[i]
	}
	return t
}

func prefixCount(rng *loss.RNG, typ ASType) int {
	switch typ {
	case LTP:
		return 4 + rng.Intn(5)
	case STP:
		return 2 + rng.Intn(5)
	case CAHP:
		return 3 + rng.Intn(6)
	default:
		return 1 + rng.Intn(2)
	}
}

func pickRegion(rng *loss.RNG) geo.Region {
	x := rng.Float64()
	for _, rw := range regionWeights {
		if x < rw.weight {
			return rw.region
		}
		x -= rw.weight
	}
	return geo.RegionEU
}

func pickPlace(rng *loss.RNG, r geo.Region) geo.Place {
	ps := geo.PlacesInRegion(r)
	return ps[rng.Intn(len(ps))]
}

// globalSites returns a tier-1-like site set: the home plus cities in
// most regions.
func globalSites(rng *loss.RNG, home geo.Place) []geo.Place {
	sites := []geo.Place{home}
	for _, r := range geo.Regions() {
		if rng.Bool(0.8) {
			p := pickPlace(rng, r)
			if p.Name != home.Name {
				sites = append(sites, p)
			}
		}
	}
	return sites
}

func regionalSites(rng *loss.RNG, r geo.Region, home geo.Place, n int) []geo.Place {
	sites := []geo.Place{home}
	ps := geo.PlacesInRegion(r)
	for i := 1; i < n; i++ {
		p := ps[rng.Intn(len(ps))]
		dup := false
		for _, s := range sites {
			if s.Name == p.Name {
				dup = true
				break
			}
		}
		if !dup {
			sites = append(sites, p)
		}
	}
	return sites
}

func groupByRegion(as []*AS) map[geo.Region][]*AS {
	m := make(map[geo.Region][]*AS)
	for _, a := range as {
		m[a.Region] = append(m[a.Region], a)
	}
	return m
}

func providerPool(rng *loss.RNG, regional []*AS, ltps []*AS) []*AS {
	if len(regional) == 0 {
		return ltps
	}
	// Mostly regional transit with occasional direct LTP transit.
	pool := append([]*AS{}, regional...)
	pool = append(pool, ltps[rng.Intn(len(ltps))])
	return pool
}

func pickDistinct(rng *loss.RNG, pool []*AS, n int) []*AS {
	if n <= 0 || len(pool) == 0 {
		return nil
	}
	if n >= len(pool) {
		out := make([]*AS, len(pool))
		copy(out, pool)
		return out
	}
	// Partial Fisher-Yates over a copy of indices.
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	out := make([]*AS, 0, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, pool[idx[i]])
	}
	return out
}

func addPeer(a, b *AS) {
	a.Peers = append(a.Peers, b.ASN)
	b.Peers = append(b.Peers, a.ASN)
}

func addProviderCustomer(provider, customer *AS) {
	provider.Customers = append(provider.Customers, customer.ASN)
	customer.Providers = append(customer.Providers, provider.ASN)
}

// related reports whether a and b already have any relationship.
func related(a, b *AS) bool {
	for _, n := range a.Neighbors() {
		if n.ASN == b.ASN {
			return true
		}
	}
	return false
}

func jitterNear(rng *loss.RNG, pos geo.LatLon, km float64) geo.LatLon {
	const kmPerDeg = 111.0
	out := geo.LatLon{
		Lat: pos.Lat + rng.NormFloat64()*km/kmPerDeg,
		Lon: pos.Lon + rng.NormFloat64()*km/kmPerDeg,
	}
	if out.Lat > 90 {
		out.Lat = 90
	}
	if out.Lat < -90 {
		out.Lat = -90
	}
	for out.Lon > 180 {
		out.Lon -= 360
	}
	for out.Lon < -180 {
		out.Lon += 360
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
