package bgp

import "net/netip"

// PackWithdrawals groups withdrawn prefixes into as few UPDATE messages
// as fit the 4096-byte protocol limit — what real speakers do instead
// of sending one prefix per message.
func PackWithdrawals(withdrawn []netip.Prefix) []Update {
	// Fixed per-message cost: header + the two length fields.
	const capacity = maxMsgLen - headerLen - 4
	var out []Update
	var cur []netip.Prefix
	room := capacity
	for _, p := range withdrawn {
		need := 1 + (p.Bits()+7)/8
		if need > room {
			out = append(out, Update{Withdrawn: cur})
			cur, room = nil, capacity
		}
		cur = append(cur, p)
		room -= need
	}
	if len(cur) > 0 {
		out = append(out, Update{Withdrawn: cur})
	}
	return out
}
