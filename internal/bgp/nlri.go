package bgp

import (
	"fmt"
	"net/netip"
)

// marshalNLRI encodes prefixes in the RFC 4271 <length, prefix> form:
// one length octet (bits) followed by ceil(length/8) prefix octets.
// Only IPv4 prefixes are valid in the classic UPDATE NLRI fields.
func marshalNLRI(prefixes []netip.Prefix) ([]byte, error) {
	var out []byte
	for _, p := range prefixes {
		if !p.IsValid() {
			return nil, fmt.Errorf("invalid prefix %v", p)
		}
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("non-IPv4 prefix %v in NLRI", p)
		}
		p = p.Masked()
		bits := p.Bits()
		nbytes := (bits + 7) / 8
		out = append(out, byte(bits))
		addr := p.Addr().As4()
		out = append(out, addr[:nbytes]...)
	}
	return out, nil
}

// unmarshalNLRI decodes a sequence of <length, prefix> entries into a
// slice sized once: a packed UPDATE carries hundreds.
func unmarshalNLRI(buf []byte) ([]netip.Prefix, error) {
	var out []netip.Prefix
	if n := countNLRI(buf); n > 0 {
		out = make([]netip.Prefix, 0, n)
	}
	for len(buf) > 0 {
		bits := int(buf[0])
		if bits > 32 {
			return nil, fmt.Errorf("%w: NLRI prefix length %d", ErrBadLength, bits)
		}
		nbytes := (bits + 7) / 8
		if len(buf) < 1+nbytes {
			return nil, fmt.Errorf("%w: NLRI needs %d bytes, have %d", ErrTruncated, 1+nbytes, len(buf))
		}
		var addr [4]byte
		copy(addr[:nbytes], buf[1:1+nbytes])
		p := netip.PrefixFrom(netip.AddrFrom4(addr), bits)
		if p.Masked() != p {
			return nil, fmt.Errorf("%w: NLRI prefix %v has bits beyond its length", ErrBadLength, p)
		}
		out = append(out, p)
		buf = buf[1+nbytes:]
	}
	return out, nil
}

// countNLRI counts the <length, prefix> entries in buf by their length
// octets alone. Only a malformed buffer, which the decode rejects, can
// make it miscount.
func countNLRI(buf []byte) int {
	n := 0
	for i := 0; i < len(buf); i += 1 + (int(buf[i])+7)/8 {
		n++
	}
	return n
}
