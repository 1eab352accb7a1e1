package topo

import (
	"testing"

	"vns/internal/geo"
)

func smallTopo(t *testing.T) *Topology {
	t.Helper()
	return Generate(GenConfig{Seed: 1, NumAS: 600})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Seed: 7, NumAS: 300})
	b := Generate(GenConfig{Seed: 7, NumAS: 300})
	if len(a.ASNs()) != len(b.ASNs()) {
		t.Fatal("different AS counts for same seed")
	}
	for _, asn := range a.ASNs() {
		x, y := a.AS(asn), b.AS(asn)
		if x.Type != y.Type || x.Region != y.Region || x.Home.Name != y.Home.Name {
			t.Fatalf("AS%d differs between runs", asn)
		}
		if len(x.Prefixes) != len(y.Prefixes) {
			t.Fatalf("AS%d prefix counts differ", asn)
		}
	}
	c := Generate(GenConfig{Seed: 8, NumAS: 300})
	diff := false
	for _, asn := range a.ASNs() {
		if a.AS(asn).Home.Name != c.AS(asn).Home.Name {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical topologies")
	}
}

func TestGenerateCounts(t *testing.T) {
	tp := smallTopo(t)
	counts := map[ASType]int{}
	for _, asn := range tp.ASNs() {
		counts[tp.AS(asn).Type]++
	}
	if counts[LTP] != numLTP {
		t.Errorf("LTP count = %d, want %d", counts[LTP], numLTP)
	}
	if counts[STP] == 0 || counts[CAHP] == 0 || counts[EC] == 0 {
		t.Errorf("missing AS types: %v", counts)
	}
	if counts[EC] < counts[STP] {
		t.Errorf("ECs (%d) should outnumber STPs (%d)", counts[EC], counts[STP])
	}
	total := counts[LTP] + counts[STP] + counts[CAHP] + counts[EC]
	if total != 600 {
		t.Errorf("total = %d, want 600", total)
	}
}

func TestGenerateRelationshipInvariants(t *testing.T) {
	tp := smallTopo(t)
	for _, asn := range tp.ASNs() {
		a := tp.AS(asn)
		seen := map[uint16]Rel{}
		for _, n := range a.Neighbors() {
			if n.ASN == asn {
				t.Fatalf("AS%d has a self-link", asn)
			}
			if prev, dup := seen[n.ASN]; dup {
				t.Fatalf("AS%d has duplicate relationship to AS%d (%v and %v)", asn, n.ASN, prev, n.Rel)
			}
			seen[n.ASN] = n.Rel
			// Symmetry: the neighbor must hold the inverse relationship.
			b := tp.AS(n.ASN)
			if b == nil {
				t.Fatalf("AS%d links to unknown AS%d", asn, n.ASN)
			}
			var want Rel
			switch n.Rel {
			case RelProvider:
				want = RelCustomer
			case RelCustomer:
				want = RelProvider
			case RelPeer:
				want = RelPeer
			}
			found := false
			for _, m := range b.Neighbors() {
				if m.ASN == asn && m.Rel == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("AS%d sees AS%d as %v but inverse edge missing", asn, n.ASN, n.Rel)
			}
		}
	}
}

func TestGenerateEveryNonLTPHasProvider(t *testing.T) {
	tp := smallTopo(t)
	for _, asn := range tp.ASNs() {
		a := tp.AS(asn)
		if a.Type != LTP && len(a.Providers) == 0 {
			t.Errorf("AS%d (%v) has no provider", asn, a.Type)
		}
		if a.Type == LTP && len(a.Providers) != 0 {
			t.Errorf("LTP AS%d has a provider", asn)
		}
	}
}

func TestGenerateLTPMesh(t *testing.T) {
	tp := smallTopo(t)
	var ltps []*AS
	for _, asn := range tp.ASNs() {
		if a := tp.AS(asn); a.Type == LTP {
			ltps = append(ltps, a)
		}
	}
	for i, a := range ltps {
		for j, b := range ltps {
			if i == j {
				continue
			}
			found := false
			for _, p := range a.Peers {
				if p == b.ASN {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("LTP AS%d and AS%d not peered", a.ASN, b.ASN)
			}
		}
	}
}

func TestGeneratePrefixes(t *testing.T) {
	tp := smallTopo(t)
	if len(tp.Prefixes) < 600 {
		t.Fatalf("only %d prefixes", len(tp.Prefixes))
	}
	seen := map[string]bool{}
	for _, pi := range tp.Prefixes {
		s := pi.Prefix.String()
		if seen[s] {
			t.Fatalf("duplicate prefix %s", s)
		}
		seen[s] = true
		if !pi.Loc.Valid() {
			t.Errorf("prefix %s has invalid location", s)
		}
		a := tp.AS(pi.Origin)
		if a == nil {
			t.Fatalf("prefix %s has unknown origin", s)
		}
		got, ok := tp.PrefixInfoFor(pi.Prefix)
		if !ok || got.Origin != pi.Origin {
			t.Errorf("PrefixInfoFor(%s) mismatch", s)
		}
	}
}

func TestPrefixAt(t *testing.T) {
	p0 := PrefixAt(0)
	if p0.String() != "1.0.0.0/20" {
		t.Errorf("PrefixAt(0) = %v", p0)
	}
	p1 := PrefixAt(1)
	if p1.String() != "1.0.16.0/20" {
		t.Errorf("PrefixAt(1) = %v", p1)
	}
	if PrefixAt(256).String() != "1.16.0.0/20" {
		t.Errorf("PrefixAt(256) = %v", PrefixAt(256))
	}
	if PrefixAt(4096).String() != "2.0.0.0/20" {
		t.Errorf("PrefixAt(4096) = %v", PrefixAt(4096))
	}
}

func TestRoutesFromReachesEverything(t *testing.T) {
	tp := smallTopo(t)
	// From an LTP, everything must be reachable (it has the full
	// customer cone of the Internet below it plus the peer mesh).
	var ltp *AS
	for _, asn := range tp.ASNs() {
		if tp.AS(asn).Type == LTP {
			ltp = tp.AS(asn)
			break
		}
	}
	v := tp.RoutesFrom(ltp.ASN)
	for _, asn := range tp.ASNs() {
		if _, _, ok := v.Best(asn); !ok {
			t.Fatalf("AS%d unreachable from LTP AS%d", asn, ltp.ASN)
		}
	}
	// Self route: customer class, 0 hops.
	class, hops, ok := v.Best(ltp.ASN)
	if !ok || class != ClassCustomer || hops != 0 {
		t.Errorf("self route = %v %d %v", class, hops, ok)
	}
}

func TestRoutesFromStubSeesProviderRoutes(t *testing.T) {
	tp := smallTopo(t)
	var ec *AS
	for _, asn := range tp.ASNs() {
		if tp.AS(asn).Type == EC {
			ec = tp.AS(asn)
			break
		}
	}
	v := tp.RoutesFrom(ec.ASN)
	reached, custOrPeer := 0, 0
	for _, asn := range tp.ASNs() {
		class, _, ok := v.Best(asn)
		if !ok {
			t.Fatalf("AS%d unreachable from stub AS%d", asn, ec.ASN)
		}
		reached++
		if class != ClassProvider && asn != ec.ASN {
			custOrPeer++
		}
	}
	// A stub reaches almost everything via its providers.
	if custOrPeer > reached/2 {
		t.Errorf("stub has %d/%d non-provider routes, expected mostly provider routes", custOrPeer, reached)
	}
}

func TestValleyFreePreference(t *testing.T) {
	tp := smallTopo(t)
	// For every AS with both a customer route and any other class to
	// some destination, Best must return the customer route even if it
	// is longer — verify class ordering on a sample.
	v := tp.RoutesFrom(tp.ASNs()[0])
	for _, dst := range tp.ASNs() {
		class, hops, ok := v.Best(dst)
		if !ok {
			continue
		}
		if ch, cok := v.CustomerRoute(dst); cok {
			if class != ClassCustomer || hops != ch {
				t.Fatalf("dst AS%d: Best=(%v,%d) but customer route %d exists", dst, class, hops, ch)
			}
		}
	}
}

func TestExportRules(t *testing.T) {
	tp := smallTopo(t)
	var ltp *AS
	for _, asn := range tp.ASNs() {
		if tp.AS(asn).Type == LTP {
			ltp = tp.AS(asn)
			break
		}
	}
	v := tp.RoutesFrom(ltp.ASN)
	toCustomer, toPeer := 0, 0
	for _, dst := range tp.ASNs() {
		if _, ok := v.ExportToCustomer(dst); ok {
			toCustomer++
		}
		if _, ok := v.ExportToPeer(dst); ok {
			toPeer++
		}
	}
	if toCustomer != len(tp.ASNs()) {
		t.Errorf("LTP exports %d/%d to customers, want all", toCustomer, len(tp.ASNs()))
	}
	// Peers see only the customer cone, which excludes at least the
	// other LTPs and their exclusive cones.
	if toPeer >= toCustomer {
		t.Errorf("peer export (%d) should be smaller than customer export (%d)", toPeer, toCustomer)
	}
	if toPeer == 0 {
		t.Error("LTP customer cone empty")
	}
}

func TestInCustomerCone(t *testing.T) {
	tp := smallTopo(t)
	// Any EC is in its provider's customer cone.
	for _, asn := range tp.ASNs() {
		a := tp.AS(asn)
		if a.Type != EC || len(a.Providers) == 0 {
			continue
		}
		v := tp.RoutesFrom(a.Providers[0])
		if !v.InCustomerCone(asn) {
			t.Fatalf("EC AS%d not in provider AS%d cone", asn, a.Providers[0])
		}
		break
	}
}

func TestRouteViewUnknownASN(t *testing.T) {
	tp := smallTopo(t)
	v := tp.RoutesFrom(tp.ASNs()[0])
	if _, _, ok := v.Best(65000); ok {
		t.Error("unknown ASN should be unreachable")
	}
	if v.src != tp.ASNs()[0] {
		t.Error("Src wrong")
	}
}

func TestRoutesFromUnknownSource(t *testing.T) {
	tp := smallTopo(t)
	v := tp.RoutesFrom(65000)
	reached := 0
	for _, asn := range tp.ASNs() {
		if _, _, ok := v.Best(asn); ok {
			reached++
		}
	}
	if reached != 0 {
		t.Errorf("unknown source reaches %d ASes", reached)
	}
}

func TestDelayModelBasics(t *testing.T) {
	tp := smallTopo(t)
	m := NewDelayModel(tp, 42)
	ams := geo.MustLookup("Amsterdam")
	// A prefix near Frankfurt.
	pi := &PrefixInfo{Prefix: PrefixAt(99990), Loc: geo.MustLookup("Frankfurt").Pos, Country: "DE", Region: geo.RegionEU}
	rtt := m.RTT(ams, pi, 3)
	if rtt < 3 || rtt > 30 {
		t.Errorf("AMS->FRA RTT = %.1f ms, want single-digit-ish", rtt)
	}
	// Deterministic.
	if rtt2 := m.RTT(ams, pi, 3); rtt2 != rtt {
		t.Errorf("RTT not deterministic: %v vs %v", rtt, rtt2)
	}
	// More hops cost more.
	if m.RTT(ams, pi, 10) <= rtt {
		t.Error("more AS hops should increase RTT")
	}
}

func TestDelayModelDistanceMonotone(t *testing.T) {
	tp := smallTopo(t)
	m := NewDelayModel(tp, 42)
	ams := geo.MustLookup("Amsterdam")
	near := &PrefixInfo{Prefix: PrefixAt(99991), Loc: geo.MustLookup("Paris").Pos, Country: "FR", Region: geo.RegionEU}
	far := &PrefixInfo{Prefix: PrefixAt(99992), Loc: geo.MustLookup("Tokyo").Pos, Country: "JP", Region: geo.RegionAP}
	if m.RTT(ams, near, 3) >= m.RTT(ams, far, 3) {
		t.Error("nearer destination should have lower RTT")
	}
}

func TestDelayModelTransPacific(t *testing.T) {
	tp := smallTopo(t)
	m := NewDelayModel(tp, 42)
	// Find a trans-Pacific AP AS with a prefix.
	var pi *PrefixInfo
	for i := range tp.Prefixes {
		p := &tp.Prefixes[i]
		if a := tp.AS(p.Origin); a.TransPacific && len(a.Prefixes) > 0 && p.Region == geo.RegionAP {
			pi = p
			break
		}
	}
	if pi == nil {
		t.Skip("no trans-Pacific prefix in sample")
	}
	ams := geo.MustLookup("Amsterdam")
	sjc := geo.MustLookup("SanJose")
	hk := geo.MustLookup("HongKong")
	fromEU := m.RTT(ams, pi, 4)
	fromNA := m.RTT(sjc, pi, 4)
	fromAP := m.RTT(hk, pi, 4)
	// The structural claim behind Figure 3's AP tail: for trans-Pacific
	// ASes, a US vantage can be delay-closer than the geography
	// suggests; an EU vantage pays the US detour on top of everything.
	if fromNA >= fromEU {
		t.Errorf("trans-Pacific prefix: NA vantage (%.0f) should beat EU (%.0f)", fromNA, fromEU)
	}
	_ = fromAP
}

func TestDelayModelRussiaHairpin(t *testing.T) {
	tp := smallTopo(t)
	m := NewDelayModel(tp, 42)
	moscow := &PrefixInfo{Prefix: PrefixAt(99993), Loc: geo.MustLookup("Moscow").Pos, Country: "RU", Region: geo.RegionEU}
	sin := geo.MustLookup("Singapore")
	direct := geo.DistanceKm(sin.Pos, moscow.Loc) / geo.KmPerMsRTT
	got := m.RTT(sin, moscow, 4)
	// The hairpin through the EU hub must stretch the path well beyond
	// any plain region-pair stretch of the direct geodesic.
	if got < direct*1.8 {
		t.Errorf("SIN->RU RTT %.0f ms does not reflect hairpin (direct %.0f ms)", got, direct)
	}
}

func TestASTypeAndRelStrings(t *testing.T) {
	if LTP.String() != "LTP" || EC.String() != "EC" {
		t.Error("AS type names")
	}
	if ASType(9).String() != "AS?" {
		t.Error("unknown AS type name")
	}
	if RelPeer.String() != "peer" || RelCustomer.String() != "customer" || RelProvider.String() != "provider" {
		t.Error("rel names")
	}
	if Rel(9).String() != "rel?" {
		t.Error("unknown rel name")
	}
	if ClassCustomer.String() != "customer" || ClassNone.String() != "none" {
		t.Error("class names")
	}
}

func TestNumLinksPositive(t *testing.T) {
	tp := smallTopo(t)
	if tp.NumLinks() <= 0 {
		t.Error("no links")
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(GenConfig{Seed: uint64(i), NumAS: 1000})
	}
}

func BenchmarkRoutesFrom(b *testing.B) {
	tp := Generate(GenConfig{Seed: 1, NumAS: 2000})
	asns := tp.ASNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.RoutesFrom(asns[i%len(asns)])
	}
}

func TestPathToMatchesBest(t *testing.T) {
	tp := smallTopo(t)
	src := tp.ASNs()[0]
	v := tp.RoutesFrom(src)
	checked := 0
	for _, dst := range tp.ASNs() {
		class, hops, ok := v.Best(dst)
		path, pok := v.PathTo(dst)
		if ok != pok {
			t.Fatalf("dst %d: Best ok=%v PathTo ok=%v", dst, ok, pok)
		}
		if !ok {
			continue
		}
		if dst == src {
			if len(path) != 0 {
				t.Fatalf("self path = %v", path)
			}
			continue
		}
		if len(path) != hops {
			t.Fatalf("dst %d: path len %d != hops %d (class %v)", dst, len(path), hops, class)
		}
		if path[len(path)-1] != dst {
			t.Fatalf("dst %d: path ends at %d", dst, path[len(path)-1])
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d paths checked", checked)
	}
}

func TestPathToIsValleyFree(t *testing.T) {
	tp := smallTopo(t)
	src := tp.ASNs()[3]
	v := tp.RoutesFrom(src)
	rel := func(a, b uint16) Rel {
		for _, nb := range tp.AS(a).Neighbors() {
			if nb.ASN == b {
				return nb.Rel
			}
		}
		t.Fatalf("no relationship %d-%d", a, b)
		return 0
	}
	for _, dst := range tp.ASNs() {
		path, ok := v.PathTo(dst)
		if !ok || len(path) == 0 {
			continue
		}
		// Walk the relationships along src -> path[0] -> ... -> dst and
		// check the up* peer? down* shape.
		full := append([]uint16{src}, path...)
		phase := 0 // 0=up, 1=after peer, 2=down
		for i := 1; i < len(full); i++ {
			r := rel(full[i-1], full[i])
			switch r {
			case RelProvider: // going up
				if phase != 0 {
					t.Fatalf("valley in path %v at hop %d", full, i)
				}
			case RelPeer:
				if phase != 0 {
					t.Fatalf("second peer/late peer in path %v at hop %d", full, i)
				}
				phase = 1
			case RelCustomer: // going down
				phase = 2
			}
			if phase == 2 && i < len(full)-1 {
				// After turning down, only customer edges may follow.
				next := rel(full[i], full[i+1])
				if next != RelCustomer {
					t.Fatalf("path %v climbs after descending at hop %d", full, i)
				}
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	tp := smallTopo(t)
	s := tp.ComputeStats()
	if s.ASes != 600 || s.Prefixes != len(tp.Prefixes) {
		t.Errorf("counts: %+v", s)
	}
	if s.ByType[LTP] != numLTP {
		t.Errorf("LTPs = %d", s.ByType[LTP])
	}
	if s.MeanDegree <= 1 {
		t.Errorf("mean degree = %v", s.MeanDegree)
	}
	// The largest cone belongs to an LTP and spans a big chunk of the
	// Internet.
	if s.MaxConeSize < s.ASes/10 {
		t.Errorf("max cone = %d of %d", s.MaxConeSize, s.ASes)
	}
	if s.TransPacific == 0 {
		t.Error("no trans-Pacific ASes")
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}
