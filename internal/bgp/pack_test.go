package bgp

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func manyPrefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32).Masked()
	}
	return out
}

func TestPackUpdatesEmpty(t *testing.T) {
	if ups := PackWithdrawals(nil); ups != nil {
		t.Errorf("empty pack: %v", ups)
	}
}

func TestPackUpdatesSingleMessage(t *testing.T) {
	ups := PackWithdrawals(manyPrefixes(10))
	if len(ups) != 1 {
		t.Fatalf("messages = %d, want 1", len(ups))
	}
	if len(ups[0].Withdrawn) != 10 {
		t.Errorf("Withdrawn = %d", len(ups[0].Withdrawn))
	}
}

func TestPackUpdatesRespectsSizeLimit(t *testing.T) {
	prefixes := manyPrefixes(5000)
	ups := PackWithdrawals(prefixes)
	if len(ups) < 2 {
		t.Fatalf("5000 prefixes in %d message(s)", len(ups))
	}
	total := 0
	for i, u := range ups {
		buf, err := Marshal(u)
		if err != nil {
			t.Fatalf("message %d unmarshalable: %v", i, err)
		}
		if len(buf) > 4096 {
			t.Fatalf("message %d is %d bytes", i, len(buf))
		}
		// Each must decode back.
		m, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		total += len(m.(Update).Withdrawn)
	}
	if total != len(prefixes) {
		t.Errorf("packed %d prefixes, want %d", total, len(prefixes))
	}
	// Order preserved across messages.
	idx := 0
	for _, u := range ups {
		for _, p := range u.Withdrawn {
			if p != prefixes[idx] {
				t.Fatalf("order broken at %d", idx)
			}
			idx++
		}
	}
}

func TestPackWithdrawals(t *testing.T) {
	prefixes := manyPrefixes(3000)
	ups := PackWithdrawals(prefixes)
	total := 0
	for i, u := range ups {
		if len(u.NLRI) != 0 {
			t.Fatalf("withdrawal message %d has NLRI", i)
		}
		buf, err := Marshal(u)
		if err != nil || len(buf) > 4096 {
			t.Fatalf("message %d: %d bytes, err %v", i, len(buf), err)
		}
		total += len(u.Withdrawn)
	}
	if total != len(prefixes) {
		t.Errorf("packed %d withdrawals, want %d", total, len(prefixes))
	}
}

func TestPackUpdatesProperty(t *testing.T) {
	f := func(count uint16, bits uint8) bool {
		n := int(count%2000) + 1
		b := int(bits%25) + 8
		prefixes := make([]netip.Prefix, n)
		for i := range prefixes {
			prefixes[i] = netip.PrefixFrom(
				netip.AddrFrom4([4]byte{byte(1 + i>>16), byte(i >> 8), byte(i), 0}), b).Masked()
		}
		total := 0
		for _, u := range PackWithdrawals(prefixes) {
			buf, err := Marshal(u)
			if err != nil || len(buf) > 4096 {
				return false
			}
			total += len(u.Withdrawn)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
