package main

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"

	"vns/internal/bgp"
	"vns/internal/experiments"
)

// inputs builds what a workload sends from a small world, without the
// wire: every router's packed table, then a stretch of churn's phase A
// stream for the seed, all marshalled to the bytes that would cross the
// sessions.
func inputs(t *testing.T, seed uint64) (wire []byte, order []int, addrs []netip.Addr) {
	t.Helper()
	d := newDeployment(experiments.NewEnv(experiments.Config{Seed: worldSeed, NumAS: 60}))
	d.buildTables()
	put := func(u bgp.Update) {
		b, err := bgp.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, b...)
	}
	routes := 0
	for _, r := range d.routers {
		n := 0
		for _, u := range d.tables[r] {
			put(u)
			n += len(u.NLRI)
		}
		if n != d.routes[r] {
			t.Fatalf("%v: table holds %d routes, routes says %d", r, n, d.routes[r])
		}
		routes += n
	}
	if want := len(d.prefixes) * len(d.env.Net.PoPs); routes != want {
		t.Fatalf("%d routes, want one per prefix per PoP = %d", routes, want)
	}

	mine := make([]int, 40)
	for i := range mine {
		mine[i] = i * 2
	}
	order = churnOps(newRNG(seed, 100), mine)
	for _, i := range order {
		put(bgp.Update{Withdrawn: []netip.Prefix{d.prefixes[i]}})
		put(d.announcement(d.routers[0], i))
	}
	addrs, inside := d.lookupSet(newRNG(seed, 100))
	for k, in := range inside {
		if in != (k%16 != 15) {
			t.Fatalf("address %d: inside = %v", k, in)
		}
	}
	return wire, order, addrs
}

func TestSameSeedSameInputs(t *testing.T) {
	wire1, order1, addrs1 := inputs(t, 7)
	wire2, order2, addrs2 := inputs(t, 7)
	if !bytes.Equal(wire1, wire2) {
		t.Error("same seed: UPDATE streams differ")
	}
	if !slices.Equal(order1, order2) {
		t.Error("same seed: op order differs")
	}
	if !slices.Equal(addrs1, addrs2) {
		t.Error("same seed: lookup addresses differ")
	}
	wire3, order3, addrs3 := inputs(t, 8)
	if bytes.Equal(wire1, wire3) || slices.Equal(order1, order3) || slices.Equal(addrs1, addrs3) {
		t.Error("another seed gave the same inputs")
	}
}
