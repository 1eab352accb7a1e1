// Command vnsprobe is the operator's measurement tool: probe a prefix
// (or an address) from every PoP and print the per-PoP RTTs, the geo
// decision, and whether geography picked the delay-optimal exit — the
// continuous low-overhead measurement the paper uses to spot prefixes
// needing a management override.
//
//	vnsprobe -prefix 1.0.32.0/20
//	vnsprobe -addr 1.0.32.1
//	vnsprobe -worst 10          # the ten most geo-displaced prefixes
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"sort"

	"vns/internal/experiments"
	"vns/internal/measure"
	"vns/internal/topo"
)

func main() {
	prefixFlag := flag.String("prefix", "", "prefix to probe (e.g. 1.0.32.0/20)")
	addrFlag := flag.String("addr", "", "address to probe (longest-prefix matched)")
	worst := flag.Int("worst", 0, "instead, list the N most geo-displaced prefixes")
	numAS := flag.Int("numas", 1500, "synthetic Internet size")
	seed := flag.Uint64("seed", 0, "world seed")
	flag.Parse()

	log.SetPrefix("vnsprobe: ")
	log.SetFlags(0)

	env := experiments.NewEnv(experiments.Config{Seed: *seed, NumAS: *numAS})

	if *worst > 0 {
		listWorst(env, *worst)
		return
	}

	var pi *topo.PrefixInfo
	switch {
	case *prefixFlag != "":
		p, err := netip.ParsePrefix(*prefixFlag)
		if err != nil {
			log.Fatalf("bad prefix: %v", err)
		}
		var ok bool
		pi, ok = env.Topo.PrefixInfoFor(p.Masked())
		if !ok {
			log.Fatalf("prefix %v not in the routing table", p)
		}
	case *addrFlag != "":
		a, err := netip.ParseAddr(*addrFlag)
		if err != nil {
			log.Fatalf("bad address: %v", err)
		}
		rec, ok := env.DB.Lookup(a)
		if !ok {
			log.Fatalf("no covering prefix for %v", a)
		}
		pi, ok = env.Topo.PrefixInfoFor(rec.Prefix)
		if !ok {
			log.Fatalf("prefix %v not in the routing table", rec.Prefix)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	probeOne(env, pi)
}

func probeOne(env *experiments.Env, pi *topo.PrefixInfo) {
	rec, _ := env.DB.LookupPrefix(pi.Prefix)
	fmt.Printf("prefix %v  origin AS%d\n", pi.Prefix, pi.Origin)
	fmt.Printf("  truth: (%.2f, %.2f) %s/%v\n", pi.Loc.Lat, pi.Loc.Lon, pi.Country, pi.Region)
	fmt.Printf("  geoip: (%.2f, %.2f) %s/%v", rec.Pos.Lat, rec.Pos.Lon, rec.Country, rec.Region)
	if rec.Stale {
		fmt.Print("  [stale record]")
	}
	fmt.Println()

	tb := measure.NewTable("", "PoP", "RTT", "geo LOCAL_PREF")
	type row struct {
		code string
		rtt  float64
		lp   uint32
	}
	var rows []row
	for _, pop := range env.Net.PoPs {
		rtt, ok := env.DP.ExternalRTT(pop, pi)
		if !ok {
			continue
		}
		dec := env.RR.Assign(pop.Routers[0], pi.Prefix)
		rows = append(rows, row{pop.Code, rtt, dec.LocalPref})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].rtt < rows[j].rtt })
	for _, r := range rows {
		tb.AddRow(r.code, fmt.Sprintf("%.1f ms", r.rtt), fmt.Sprint(r.lp))
	}
	fmt.Println(tb.String())

	geoPoP := env.GeoEgressPoP(pi)
	if geoPoP == nil {
		fmt.Println("unreachable")
		return
	}
	geoRTT, _ := env.DP.ExternalRTT(geoPoP, pi)
	fmt.Printf("geo-based egress: %s (%.1f ms); delay-best: %s (%.1f ms); displacement %.1f ms\n",
		geoPoP.Code, geoRTT, rows[0].code, rows[0].rtt, geoRTT-rows[0].rtt)
	if geoRTT-rows[0].rtt > 50 {
		fmt.Printf("suggestion: vnsctl force %v %v\n", pi.Prefix, env.Net.PoP(rows[0].code).Routers[0])
	}
}

func listWorst(env *experiments.Env, n int) {
	type displaced struct {
		pi   *topo.PrefixInfo
		diff float64
		geo  string
		best string
	}
	var all []displaced
	for i := range env.Topo.Prefixes {
		pi := &env.Topo.Prefixes[i]
		geoPoP := env.GeoEgressPoP(pi)
		if geoPoP == nil {
			continue
		}
		geoRTT, ok := env.DP.ExternalRTT(geoPoP, pi)
		if !ok {
			continue
		}
		bestPoP, best := env.DelayBestPoP(pi)
		if d := geoRTT - best; d > 0 {
			all = append(all, displaced{pi, d, geoPoP.Code, bestPoP.Code})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].diff > all[j].diff })
	if n > len(all) {
		n = len(all)
	}
	tb := measure.NewTable(fmt.Sprintf("top %d geo-displaced prefixes (candidates for overrides)", n),
		"Prefix", "Country", "geo PoP", "best PoP", "displacement")
	for _, d := range all[:n] {
		tb.AddRow(d.pi.Prefix.String(), d.pi.Country, d.geo, d.best, fmt.Sprintf("%.0f ms", d.diff))
	}
	fmt.Println(tb.String())
}
