package main

import (
	"net/netip"
	"testing"

	"vns/internal/bgp"
)

func hit(w *watcher) bool {
	select {
	case <-w.hit:
		return true
	default:
		return false
	}
}

// A purge withdraws whatever a dead session announced, old sentinels
// included; only the announcement may release a barrier.
func TestBarrierIgnoresWithdrawnSentinel(t *testing.T) {
	s := netip.MustParsePrefix("240.0.0.1/32")
	other := netip.MustParsePrefix("240.0.0.2/32")
	w := newWatcher()
	w.arm(announces(s))
	w.see(bgp.Update{Withdrawn: []netip.Prefix{s}})
	w.see(bgp.Update{NLRI: []netip.Prefix{other}})
	if hit(w) {
		t.Fatal("barrier released by a withdrawal or by another prefix")
	}
	w.see(bgp.Update{NLRI: []netip.Prefix{other, s}})
	if !hit(w) {
		t.Fatal("barrier not released by the sentinel's announcement")
	}
	w.see(bgp.Update{NLRI: []netip.Prefix{s}})
	if hit(w) {
		t.Fatal("a disarmed watcher reported a hit")
	}
}

func TestPurgeIsSeenWhenAllRoutesAreWithdrawn(t *testing.T) {
	p := netip.MustParsePrefix("1.0.0.0/20")
	w := newWatcher()
	w.arm(withdrawsTotal(5))
	w.see(bgp.Update{Withdrawn: []netip.Prefix{p, p, p}})
	w.see(bgp.Update{NLRI: []netip.Prefix{p}})
	if hit(w) {
		t.Fatal("released after 3 of 5 withdrawals")
	}
	w.see(bgp.Update{Withdrawn: []netip.Prefix{p, p}})
	if !hit(w) {
		t.Fatal("not released after 5 withdrawals")
	}
}

func TestArmDropsAStaleHit(t *testing.T) {
	p := netip.MustParsePrefix("1.0.0.0/20")
	w := newWatcher()
	w.arm(announces(p))
	w.see(bgp.Update{NLRI: []netip.Prefix{p}}) // arrives after its wait gave up
	w.arm(withdraws(p))
	if hit(w) {
		t.Fatal("a hit for the previous match survived arm")
	}
}
