package lpm

import (
	"net/netip"
	"testing"

	"vns/internal/detsort"
	"vns/internal/loss"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// key returns the bytes Lookup walks for addr.
func key(addr netip.Addr) []byte {
	if addr.Is4() {
		a := addr.As4()
		return a[:]
	}
	a := addr.As16()
	return a[:]
}

// lastAddr returns the highest address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	k := key(p.Addr())
	for i := p.Bits(); i < 8*len(k); i++ {
		k[i/8] |= 0x80 >> (i % 8)
	}
	a, _ := netip.AddrFromSlice(k)
	return a
}

// countNodes returns the number of distinct nodes reachable from n.
func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.child {
		total += countNodes(c)
	}
	return total
}

// linear is the reference: the value of the longest prefix in m
// containing addr, by scanning every prefix.
func linear(m map[netip.Prefix]int32, addr netip.Addr) int32 {
	best, bits := int32(0), -1
	for p, v := range m {
		if p.Contains(addr) && p.Bits() > bits {
			best, bits = v, p.Bits()
		}
	}
	return best
}

// coverOf returns the value and length of the longest prefix in m
// strictly shorter than p that contains it, or 0, 0.
func coverOf(m map[netip.Prefix]int32, p netip.Prefix) (int32, int) {
	best, bits := int32(0), 0
	for q, v := range m {
		if q.Bits() < p.Bits() && q.Contains(p.Addr()) && (best == 0 || q.Bits() > bits) {
			best, bits = v, q.Bits()
		}
	}
	return best, bits
}

func TestCanonical(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"10.1.2.3/16", "10.1.0.0/16", true},
		{"::ffff:10.1.0.0/112", "10.1.0.0/16", true},
		{"::ffff:10.1.2.7/128", "10.1.2.7/32", true},
		{"::ffff:0.0.0.0/96", "0.0.0.0/0", true},
		{"::ffff:10.0.0.0/95", "", false},
		{"2001:db8::1/32", "2001:db8::/32", true},
	}
	for _, c := range cases {
		got, ok := Canonical(mustPrefix(c.in))
		if ok != c.ok || (ok && got != mustPrefix(c.want)) {
			t.Errorf("Canonical(%s) = %v, %v; want %s, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	if _, ok := Canonical(netip.Prefix{}); ok {
		t.Error("Canonical accepted the zero prefix")
	}
}

// TestDeltaSharesUntouchedSubtrees pins the copy-on-write contract: a
// write to a fork confined to one /8 must reuse (pointer-share) the
// subtree of an unrelated /8 rather than copy it.
func TestDeltaSharesUntouchedSubtrees(t *testing.T) {
	var cur Trie
	cur.Insert(mustPrefix("10.1.2.0/24"), 1)
	cur.Insert(mustPrefix("20.3.4.0/24"), 2)
	nodesBefore := countNodes(cur.root)

	got := cur.Fork()
	got.Insert(mustPrefix("10.1.9.0/24"), 3)
	if cur.root == got.root {
		t.Fatal("root was not cloned")
	}
	if cur.root.child[20] != got.root.child[20] {
		t.Error("untouched 20/8 subtree was cloned instead of shared")
	}
	if cur.root.child[10] == got.root.child[10] {
		t.Error("patched 10/8 subtree is shared with the old generation")
	}
	// 10.1.9.0/24 lands in the existing depth-2 node under 10.1: the
	// clone adds no nodes beyond the copied path.
	if n := countNodes(got.root); n != nodesBefore {
		t.Errorf("fork has %d nodes, want %d (patch within existing node)", n, nodesBefore)
	}
	if v := cur.Lookup(key(netip.MustParseAddr("10.1.9.1"))); v != 0 {
		t.Errorf("write to the fork reached the original: lookup = %d", v)
	}
}

// TestTrieMatchesLinear inserts random IPv4 and IPv6 prefixes in random
// order, then withdraws some of them from a fork, checking every trie
// against a linear scan after each step and the forked-from trie
// against its own unchanged model.
func TestTrieMatchesLinear(t *testing.T) {
	rng := loss.NewRNG(1)
	randPrefix := func(v6 bool) netip.Prefix {
		var a [16]byte
		for i := range a {
			a[i] = byte(rng.Intn(4)) // few distinct bytes: many nested and shared paths
		}
		if !v6 {
			return netip.PrefixFrom(netip.AddrFrom4([4]byte(a[:4])), rng.Intn(33)).Masked()
		}
		return netip.PrefixFrom(netip.AddrFrom16(a), rng.Intn(129)).Masked()
	}
	check := func(tr *Trie, m map[netip.Prefix]int32, v6 bool, step string) {
		t.Helper()
		probes := make([]netip.Addr, 0, 2*len(m)+50)
		for p := range m {
			probes = append(probes, p.Addr(), lastAddr(p))
		}
		for i := 0; i < 50; i++ {
			probes = append(probes, randPrefix(v6).Addr())
		}
		for _, a := range probes {
			if got, want := tr.Lookup(key(a)), linear(m, a); got != want {
				t.Fatalf("%s: Lookup(%v) = %d, want %d", step, a, got, want)
			}
		}
	}
	for _, v6 := range []bool{false, true} {
		var tr Trie
		model := map[netip.Prefix]int32{}
		for i := int32(1); i <= 200; i++ {
			p := randPrefix(v6)
			tr.Insert(p, i)
			model[p] = i
		}
		check(&tr, model, v6, "insert")
		parent := make(map[netip.Prefix]int32, len(model))
		for p, v := range model {
			parent[p] = v
		}
		fork := tr.Fork()
		for _, p := range detsort.KeysFunc(model, detsort.PrefixCompare) {
			if rng.Intn(3) != 0 {
				continue
			}
			delete(model, p)
			cover, bits := coverOf(model, p)
			fork.Withdraw(p, cover, bits)
		}
		if p := randPrefix(v6); model[p] == 0 {
			fork.Withdraw(p, 0, 0) // not installed: a no-op
		}
		check(&fork, model, v6, "withdraw")
		check(&tr, parent, v6, "parent after fork")
	}
}

func TestLookupEmpty(t *testing.T) {
	var tr Trie
	if v := tr.Lookup(key(netip.MustParseAddr("10.0.0.1"))); v != 0 {
		t.Errorf("empty trie lookup = %d", v)
	}
	tr.Withdraw(mustPrefix("10.0.0.0/8"), 0, 0)
	if tr.root != nil {
		t.Error("withdraw from an empty trie created nodes")
	}
}
