// Package lpm is the one longest-prefix-match structure of the tree:
// the forwarding plane (fib) forwards through it and the geolocation
// database (geoip) geolocates through it. It is an 8-bit-stride
// leaf-pushed multibit trie: an IPv4 trie is at most four levels deep,
// an IPv6 one sixteen, and a lookup is one array read per level, with
// no comparisons against prefix lists and no locks.
//
// Values are nonzero int32s naming entries of tables the caller owns
// (fib's rows, positive, and composite rows, negative; geoip's records),
// so a node's size does not depend on what the caller stores. 0 means
// no route.
//
// Writes are copy-on-write: a trie taken by Fork shares every node of
// the trie it came from and copies each one on its first write to it,
// so the original, and every reader of it, never sees the change. That
// is how fib patches a published table while the data path reads it. A
// trie that is never forked (geoip's) writes in place.
//
// Ownership is tracked per leaf slot (node.leafBits): a slot records
// the length of the prefix whose value occupies it. An insert of p
// overwrites exactly the slots owned by prefixes no longer than p
// (leaf-pushing itself down into existing children), so inserts may
// come in any order; a withdrawal of p restores exactly the slots p
// owns to p's covering route, which the caller names. A prefix whose
// every slot a longer prefix owns leaves no trace in the trie, so the
// trie cannot say whether such a prefix is installed: callers that need
// exact match keep their own prefix set.
package lpm

import (
	"net/netip"
	"sync/atomic"
)

// node is one 8-bit-stride trie level: 256 slots, each either an
// internal child (descend) or a leaf-pushed value.
type node struct {
	// owner is the ID of the trie that created or copied the node. A
	// trie writes in place only into nodes stamped with its own ID; any
	// other is shared with the trie it was forked from.
	owner uint64
	child [256]*node
	// leaf holds the slot's value. When child[i] is non-nil the covering
	// route has been pushed down into the child, so leaf[i] is not
	// consulted by Lookup.
	leaf [256]int32
	// leafBits records, per slot, the length of the prefix whose value
	// occupies leaf[i] (0 when leaf[i] == 0). Lookup never reads it. The
	// invariant at every slot i of a depth-d node — whether or not
	// child[i] exists — is that (leaf[i], leafBits[i]) names the longest
	// installed prefix of length ≤ (d+1)*8 covering the slot's address
	// region.
	leafBits [256]uint8
}

// forks hands every forked trie a unique owner ID. A reused ID would let
// a fork write in place into nodes another trie holds.
var forks atomic.Uint64

// Trie is a longest-prefix-match trie over the prefixes of one address
// family. The zero Trie is empty and ready to use. Lookups are safe for
// concurrent use; writes must not race them, which copy-on-write users
// get by writing only to a fork no reader has yet.
type Trie struct {
	root  *node
	owner uint64
}

// Canonical returns the prefix a trie stores for p: p masked, with an
// IPv4-mapped prefix of 96 bits or more unmapped to the IPv4 prefix it
// embeds (::ffff:10.1.0.0/112 is 10.1.0.0/16). It reports false for an
// invalid prefix and for a shorter IPv4-mapped one, which names no IPv4
// prefix.
func Canonical(p netip.Prefix) (netip.Prefix, bool) {
	if a := p.Addr(); a.Is4In6() {
		if p.Bits() < 96 {
			return netip.Prefix{}, false
		}
		p = netip.PrefixFrom(a.Unmap(), p.Bits()-96)
	}
	if !p.IsValid() {
		return netip.Prefix{}, false
	}
	return p.Masked(), true
}

// Fork returns a trie equal to t that shares t's nodes and copies each
// on its first write, so writes to the fork never reach t or any other
// fork of it. t must not be written after it is forked.
func (t *Trie) Fork() Trie {
	return Trie{root: t.root, owner: forks.Add(1)}
}

// Lookup returns the value of the longest installed prefix covering the
// address whose bytes key holds (As4 for an IPv4 trie, As16 for IPv6),
// or 0. It is wait-free: one array read per level, no allocation.
//
//vnslint:hotpath
func (t *Trie) Lookup(key []byte) int32 {
	n := t.root
	if n == nil {
		return 0
	}
	for _, b := range key {
		c := n.child[b]
		if c == nil {
			return n.leaf[b]
		}
		n = c
	}
	// Unreachable for a full-length key: the deepest level's slots are
	// leaves.
	return 0
}

// Insert installs canonical prefix p (see Canonical) with value v ≠ 0,
// replacing p's previous value. Within p's span, every slot owned by a
// prefix no longer than p takes v, and existing children under those
// slots inherit it by leaf-pushing: the state inserting the same set in
// length order would have produced.
func (t *Trie) Insert(p netip.Prefix, v int32) {
	bits := uint8(p.Bits())
	n, lo, hi := t.walk(p, true)
	t.assign(n, lo, hi, 0, bits, v, bits)
}

// Withdraw removes canonical prefix p: every slot p owns reverts to its
// covering route, the prefix of coverBits bits with value cover (0 and
// 0 when nothing covers p). Slots owned by longer prefixes, and the
// subtrees under them, are untouched. Withdrawing a prefix that is not
// installed changes nothing.
func (t *Trie) Withdraw(p netip.Prefix, cover int32, coverBits int) {
	bits := uint8(p.Bits())
	// Unlike Insert, a missing path means p is not in the trie (its
	// insert would have created the path), so there is nothing to revert.
	if n, lo, hi := t.walk(p, false); n != nil {
		t.assign(n, lo, hi, bits, bits, cover, uint8(coverBits))
	}
}

// walk descends to the node where p's span of leaf slots lives, owning
// every node on the path, and returns it with the span's slot range.
// With create it makes missing nodes, leaf-pushing the covering slot's
// route into each; without, it returns a nil node where the path ends.
func (t *Trie) walk(p netip.Prefix, create bool) (n *node, lo, hi int) {
	key := p.Addr().As16()
	k := key[:]
	if p.Addr().Is4() {
		k = key[12:]
	}
	bits := p.Bits()
	if t.root == nil {
		if !create {
			return nil, 0, 0
		}
		t.root = &node{owner: t.owner}
	}
	t.root = t.own(t.root)
	n = t.root
	d := 0
	for ; bits > (d+1)*8; d++ {
		b := k[d]
		c := n.child[b]
		switch {
		case c != nil:
			c = t.own(c)
		case !create:
			return nil, 0, 0
		default:
			c = &node{owner: t.owner}
			// Leaf-push: the covering route at this slot applies to the
			// whole new subtree until longer prefixes overwrite parts of
			// it.
			if v := n.leaf[b]; v != 0 {
				vb := n.leafBits[b]
				for i := range c.leaf {
					c.leaf[i] = v
					c.leafBits[i] = vb
				}
			}
		}
		n.child[b] = c
		n = c
	}
	// The prefix ends within this node's stride: it covers a
	// power-of-two aligned run of slots.
	span := 1 << ((d+1)*8 - bits)
	lo = int(k[d]) &^ (span - 1)
	return n, lo, lo + span
}

// assign sets every slot in [lo, hi) of an owned node whose owner's
// length is in [minBits, maxBits] to (v, bits), and descends into the
// children under those slots, which may hold such slots deeper down. A
// slot owned by a length outside the range is skipped with its subtree:
// every slot beneath it is owned by a prefix at least that long.
func (t *Trie) assign(n *node, lo, hi int, minBits, maxBits uint8, v int32, bits uint8) {
	for s := lo; s < hi; s++ {
		if lb := n.leafBits[s]; lb < minBits || lb > maxBits {
			continue
		}
		n.leaf[s] = v
		n.leafBits[s] = bits
		if c := n.child[s]; c != nil {
			c = t.own(c)
			n.child[s] = c
			t.assign(c, 0, len(c.leaf), minBits, maxBits, v, bits)
		}
	}
}

// own returns n if t owns it, else a copy of n that t owns; the caller
// stores the result back into the parent slot.
func (t *Trie) own(n *node) *node {
	if n.owner == t.owner {
		return n
	}
	c := new(node)
	*c = *n
	c.owner = t.owner
	return c
}
