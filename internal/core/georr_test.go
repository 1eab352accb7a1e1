package core

import (
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"vns/internal/bgp"
	"vns/internal/geo"
	"vns/internal/geoip"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func testRR(t testing.TB) (*GeoRR, *geoip.DB) {
	t.Helper()
	db := geoip.New()
	// Prefixes in Amsterdam, New York, and Hong Kong.
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert(geoip.Record{Prefix: prefix("10.1.0.0/16"), Pos: geo.MustLookup("Amsterdam").Pos, Country: "NL", Region: geo.RegionEU}))
	must(db.Insert(geoip.Record{Prefix: prefix("10.2.0.0/16"), Pos: geo.MustLookup("NewYork").Pos, Country: "US", Region: geo.RegionNA}))
	must(db.Insert(geoip.Record{Prefix: prefix("10.3.0.0/16"), Pos: geo.MustLookup("HongKong").Pos, Country: "HK", Region: geo.RegionAP}))

	rr := New(Config{DB: db})
	rr.AddEgress(Egress{ID: addr("10.0.1.1"), Pos: geo.MustLookup("Amsterdam").Pos, PoP: "AMS"})
	rr.AddEgress(Egress{ID: addr("10.0.2.1"), Pos: geo.MustLookup("Ashburn").Pos, PoP: "ASH"})
	rr.AddEgress(Egress{ID: addr("10.0.3.1"), Pos: geo.MustLookup("HongKong").Pos, PoP: "HK"})
	return rr, db
}

func TestLinearLocalPrefMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		d1, d2 := float64(a), float64(b)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return LinearLocalPref(d1) >= LinearLocalPref(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if LinearLocalPref(0) != 2000 {
		t.Errorf("lp(0) = %d", LinearLocalPref(0))
	}
	if LinearLocalPref(halfEarthKm) != 1000 {
		t.Errorf("lp(max) = %d", LinearLocalPref(halfEarthKm))
	}
	if LinearLocalPref(-5) != 2000 || LinearLocalPref(1e9) != 1000 {
		t.Error("clamping broken")
	}
}

func TestLocalPrefAlwaysAboveDefault(t *testing.T) {
	for d := 0.0; d <= 25000; d += 500 {
		if LinearLocalPref(d) <= 100 || StepLocalPref(d) <= 100 {
			t.Fatalf("local pref at %v km not above default", d)
		}
	}
}

func TestStepLocalPrefBuckets(t *testing.T) {
	if StepLocalPref(100) != StepLocalPref(400) {
		t.Error("distances in one bucket should tie")
	}
	if StepLocalPref(100) <= StepLocalPref(900) {
		t.Error("buckets must decrease")
	}
}

func TestAssignPrefersClosestEgress(t *testing.T) {
	rr, _ := testRR(t)
	// Amsterdam prefix: AMS egress must get the highest preference.
	p := prefix("10.1.0.0/16")
	ams := rr.Assign(addr("10.0.1.1"), p)
	ash := rr.Assign(addr("10.0.2.1"), p)
	hk := rr.Assign(addr("10.0.3.1"), p)
	if ams.LocalPref <= ash.LocalPref || ams.LocalPref <= hk.LocalPref {
		t.Errorf("AMS lp %d not highest (ASH %d, HK %d)", ams.LocalPref, ash.LocalPref, hk.LocalPref)
	}
	if ams.DistanceKm > 50 {
		t.Errorf("AMS distance = %v km", ams.DistanceKm)
	}
	// HK prefix: HK egress wins.
	p3 := prefix("10.3.0.0/16")
	if rr.Assign(addr("10.0.3.1"), p3).LocalPref <= rr.Assign(addr("10.0.1.1"), p3).LocalPref {
		t.Error("HK egress should win for HK prefix")
	}
}

func TestAssignUnknownEgress(t *testing.T) {
	rr, _ := testRR(t)
	dec := rr.Assign(addr("10.9.9.9"), prefix("10.1.0.0/16"))
	if dec.LocalPref != 0 {
		t.Errorf("unknown egress got lp %d", dec.LocalPref)
	}
}

func TestAssignNoGeolocation(t *testing.T) {
	rr, _ := testRR(t)
	dec := rr.Assign(addr("10.0.1.1"), prefix("172.16.0.0/12"))
	if dec.LocalPref != 0 || dec.Reason != ReasonNoGeolocation {
		t.Errorf("dec = %+v", dec)
	}
	_, misses := rr.Stats()
	if misses != 1 {
		t.Errorf("misses = %d", misses)
	}
}

func TestExempt(t *testing.T) {
	rr, _ := testRR(t)
	p := prefix("10.1.0.0/16")
	rr.Exempt(p)
	if !rr.Policy().IsExempt(p) {
		t.Fatal("not exempt")
	}
	if dec := rr.Assign(addr("10.0.1.1"), p); dec.LocalPref != 0 || dec.Reason != ReasonExempt {
		t.Errorf("dec = %+v", dec)
	}
	rr.Unexempt(p)
	if rr.Policy().IsExempt(p) {
		t.Fatal("still exempt")
	}
	if dec := rr.Assign(addr("10.0.1.1"), p); dec.LocalPref == 0 {
		t.Error("geo-routing not restored")
	}
}

func TestForceExit(t *testing.T) {
	rr, _ := testRR(t)
	p := prefix("10.1.0.0/16") // Amsterdam prefix
	// Force it out of Hong Kong (data-plane reasons).
	if err := rr.ForceExit(p, addr("10.0.3.1")); err != nil {
		t.Fatal(err)
	}
	hk := rr.Assign(addr("10.0.3.1"), p)
	ams := rr.Assign(addr("10.0.1.1"), p)
	if hk.LocalPref <= ams.LocalPref {
		t.Errorf("forced egress lp %d should beat geo winner %d", hk.LocalPref, ams.LocalPref)
	}
	if got, ok := rr.Policy().ForcedExit(p); !ok || got != addr("10.0.3.1") {
		t.Error("ForcedExit lookup wrong")
	}
	rr.Unforce(p)
	if _, ok := rr.Policy().ForcedExit(p); ok {
		t.Error("Unforce failed")
	}
	if err := rr.ForceExit(p, addr("10.99.0.1")); err == nil {
		t.Error("forcing to unknown egress should fail")
	}
}

func TestStaticRoutes(t *testing.T) {
	rr, _ := testRR(t)
	sub := prefix("10.1.200.0/24")
	cover := func(p netip.Prefix) bool { return true }
	if err := rr.AddStatic(sub, addr("10.0.3.1"), cover); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := rr.AddStatic(sub, addr("10.0.3.1"), cover); err != nil {
		t.Fatal(err)
	}
	if got := rr.Policy().Statics(); len(got) != 1 {
		t.Fatalf("statics = %v", got)
	}
	ups := rr.Policy().StaticUpdates()
	if len(ups) != 1 {
		t.Fatalf("updates = %d", len(ups))
	}
	u := ups[0]
	if !slices.Contains(u.Attrs.Communities, bgp.CommunityNoExport) {
		t.Error("static route must carry no-export")
	}
	if u.NLRI[0] != sub {
		t.Errorf("NLRI = %v", u.NLRI)
	}

	// No cover: rejected.
	if err := rr.AddStatic(prefix("10.9.0.0/24"), addr("10.0.3.1"), func(netip.Prefix) bool { return false }); err == nil {
		t.Error("AddStatic without cover should fail")
	}
	// Unknown egress: rejected.
	if err := rr.AddStatic(sub, addr("10.99.0.1"), cover); err == nil {
		t.Error("AddStatic to unknown egress should fail")
	}
	rr.RemoveStatic(sub, addr("10.0.3.1"))
	if got := rr.Policy().Statics(); len(got) != 0 {
		t.Fatalf("statics after remove = %v", got)
	}
}

// TestAddStaticCoverRunsUnlocked: hasCover is the caller's code (the
// mgmt server's is RRServer.hasCover, which takes RRServer.mu, held by
// each UPDATE from its GeoRR assignments through its reflections), so
// AddStatic must not run it while holding anything a GeoRR reader or
// writer waits on. A cover that
// re-enters the GeoRR — reads its policy, assigns, mutates it —
// deadlocks if it does.
func TestAddStaticCoverRunsUnlocked(t *testing.T) {
	rr, _ := testRR(t)
	cover := func(p netip.Prefix) bool {
		rr.Exempt(prefix("10.2.0.0/16"))
		return len(rr.Policy().Egresses()) > 0 && rr.Assign(addr("10.0.3.1"), p).Reason == ReasonGeo
	}
	done := make(chan error, 1)
	go func() { done <- rr.AddStatic(prefix("10.1.200.0/24"), addr("10.0.3.1"), cover) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AddStatic ran hasCover while holding something the GeoRR waits on")
	}
	if pol := rr.Policy(); len(pol.Statics()) != 1 || !pol.IsExempt(prefix("10.2.0.0/16")) {
		t.Fatalf("statics %v, exempt %v: the cover's mutation or the static was lost", pol.Statics(), pol.IsExempt(prefix("10.2.0.0/16")))
	}
}

func TestProcessUpdateRewritesLocalPref(t *testing.T) {
	rr, _ := testRR(t)
	in := bgp.Update{
		Attrs: bgp.Attrs{
			ASPath:  []bgp.ASPathSegment{{ASNs: []uint16{100, 200}}},
			NextHop: addr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{prefix("10.1.0.0/16")},
	}
	out := rr.ProcessUpdateQuiet(addr("10.0.1.1"), in)
	if !out.Attrs.HasLocalPref || out.Attrs.LocalPref < 1000 {
		t.Errorf("local pref not rewritten: %+v", out.Attrs)
	}
	// The reflection attributes are the wire reflector's to stamp.
	if out.Attrs.OriginatorID.IsValid() || len(out.Attrs.ClusterList) != 0 {
		t.Errorf("reflection attributes stamped: originator=%v cluster list=%v",
			out.Attrs.OriginatorID, out.Attrs.ClusterList)
	}
	// Input attributes untouched.
	if in.Attrs.HasLocalPref {
		t.Error("ProcessUpdateQuiet mutated input")
	}
}

// TestReflectStampsAttributes pins the RFC 4456 attribute rule: stamp
// the originator once, prepend the cluster ID each hop, leave the input
// alone.
func TestReflectStampsAttributes(t *testing.T) {
	in := bgp.Attrs{ASPath: []bgp.ASPathSegment{{ASNs: []uint16{100}}}}
	orig, cluster := addr("10.0.0.7"), addr("10.0.0.100")
	out := reflectAttrs(in, orig, cluster)
	if out.OriginatorID != orig {
		t.Errorf("originator = %v", out.OriginatorID)
	}
	if len(out.ClusterList) != 1 || out.ClusterList[0] != cluster {
		t.Errorf("cluster list = %v", out.ClusterList)
	}
	// Reflecting again preserves the originator and prepends.
	out2 := reflectAttrs(out, addr("10.0.0.8"), addr("10.0.0.101"))
	if out2.OriginatorID != orig {
		t.Error("originator must not be overwritten")
	}
	if len(out2.ClusterList) != 2 || out2.ClusterList[0] != addr("10.0.0.101") {
		t.Errorf("cluster list after second reflect = %v", out2.ClusterList)
	}
	if len(in.ClusterList) != 0 || len(out.ClusterList) != 1 {
		t.Error("reflectAttrs mutated its input")
	}
}

func TestProcessUpdateWithdrawOnly(t *testing.T) {
	rr, _ := testRR(t)
	in := bgp.Update{Withdrawn: []netip.Prefix{prefix("10.1.0.0/16")}}
	out := rr.ProcessUpdateQuiet(addr("10.0.1.1"), in)
	if len(out.Withdrawn) != 1 || len(out.NLRI) != 0 {
		t.Errorf("out = %+v", out)
	}
}

func TestEgressesListing(t *testing.T) {
	rr, _ := testRR(t)
	if got := len(rr.Policy().Egresses()); got != 3 {
		t.Errorf("egresses = %d", got)
	}
	p, _ := rr.Stats()
	if p != 0 {
		t.Errorf("processed = %d before any Assign", p)
	}
	rr.Assign(addr("10.0.1.1"), prefix("10.1.0.0/16"))
	p, _ = rr.Stats()
	if p != 1 {
		t.Errorf("processed = %d", p)
	}
}

// BenchmarkAssign times one geo assignment: the policy checks, the
// GeoIP walk and the distance-row read. The arguments are parsed before
// the timer starts.
func BenchmarkAssign(b *testing.B) {
	db := geoip.New()
	db.Insert(geoip.Record{Prefix: prefix("10.1.0.0/16"), Pos: geo.MustLookup("Amsterdam").Pos})
	rr := New(Config{DB: db})
	rr.AddEgress(Egress{ID: addr("10.0.1.1"), Pos: geo.MustLookup("London").Pos})
	from, p := addr("10.0.1.1"), prefix("10.1.0.0/16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.Assign(from, p)
	}
}

func TestEgressDownWithdraws(t *testing.T) {
	rr, _ := testRR(t)
	ams, p := addr("10.0.1.1"), prefix("10.1.0.0/16")

	if dec := rr.Assign(ams, p); dec.LocalPref == 0 {
		t.Fatalf("healthy egress got no preference: %+v", dec)
	}
	if !rr.SetEgressDown(ams, true) {
		t.Fatal("SetEgressDown(down) reported no change")
	}
	if rr.SetEgressDown(ams, true) {
		t.Fatal("repeated SetEgressDown(down) reported a change")
	}
	if !rr.Policy().EgressDown(ams) {
		t.Fatal("EgressDown = false after withdraw")
	}
	if dec := rr.Assign(ams, p); dec.LocalPref != 0 || dec.Reason != ReasonEgressDown {
		t.Fatalf("down egress decision = %+v", dec)
	}
	// Other egresses are untouched.
	if dec := rr.Assign(addr("10.0.2.1"), p); dec.LocalPref == 0 {
		t.Fatalf("unrelated egress withdrawn: %+v", dec)
	}
	if got := rr.Policy().DownEgresses(); len(got) != 1 || got[0] != ams {
		t.Fatalf("DownEgresses = %v", got)
	}

	if !rr.SetEgressDown(ams, false) {
		t.Fatal("SetEgressDown(up) reported no change")
	}
	if dec := rr.Assign(ams, p); dec.LocalPref == 0 {
		t.Fatalf("restored egress still withdrawn: %+v", dec)
	}
	if got := rr.Policy().DownEgresses(); len(got) != 0 {
		t.Fatalf("DownEgresses after restore = %v", got)
	}
}
