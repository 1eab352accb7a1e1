package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// Origin is the ORIGIN path attribute value (RFC 4271 §5.1.1).
type Origin uint8

// Origin codes.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("origin(%d)", uint8(o))
	}
}

// Path attribute type codes.
const (
	attrOrigin          = 1
	attrASPath          = 2
	attrNextHop         = 3
	attrMED             = 4
	attrLocalPref       = 5
	attrAtomicAggregate = 6
	attrCommunities     = 8
	attrOriginatorID    = 9
	attrClusterList     = 10
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// ASPathSegment is one segment of the AS_PATH attribute. Set true means
// an AS_SET (unordered), false an AS_SEQUENCE (ordered).
type ASPathSegment struct {
	Set  bool
	ASNs []uint16
}

// Community is an RFC 1997 community value.
type Community uint32

// Well-known communities (RFC 1997).
const (
	CommunityNoExport          Community = 0xFFFFFF01
	CommunityNoAdvertise       Community = 0xFFFFFF02
	CommunityNoExportSubconfed Community = 0xFFFFFF03
)

func (c Community) String() string {
	switch c {
	case CommunityNoExport:
		return "no-export"
	case CommunityNoAdvertise:
		return "no-advertise"
	case CommunityNoExportSubconfed:
		return "no-export-subconfed"
	}
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xFFFF)
}

// Attrs holds the path attributes of an UPDATE. The zero value is an
// empty attribute set (used for withdraw-only updates).
type Attrs struct {
	Origin  Origin
	ASPath  []ASPathSegment
	NextHop netip.Addr

	MED    uint32
	HasMED bool

	LocalPref    uint32
	HasLocalPref bool

	AtomicAggregate bool
	Communities     []Community

	// Route reflection attributes (RFC 4456).
	OriginatorID netip.Addr // unset if invalid
	ClusterList  []netip.Addr
}

// isZero reports whether no attribute is set at all.
func (a Attrs) isZero() bool {
	return a.Origin == OriginIGP && len(a.ASPath) == 0 && !a.NextHop.IsValid() &&
		!a.HasMED && !a.HasLocalPref && !a.AtomicAggregate &&
		len(a.Communities) == 0 && !a.OriginatorID.IsValid() && len(a.ClusterList) == 0
}

// ASPathLen returns the decision-process AS-path length: each sequence
// ASN counts 1, each AS_SET counts 1 in total (RFC 4271 §9.1.2.2).
func (a Attrs) ASPathLen() int {
	n := 0
	for _, seg := range a.ASPath {
		if seg.Set {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// FirstAS returns the leftmost AS in the path, or 0 for an empty path.
func (a Attrs) FirstAS() uint16 {
	for _, seg := range a.ASPath {
		if !seg.Set && len(seg.ASNs) > 0 {
			return seg.ASNs[0]
		}
	}
	return 0
}

// HasClusterLoop reports whether id appears in the CLUSTER_LIST, the
// RFC 4456 reflection loop check.
func (a Attrs) HasClusterLoop(id netip.Addr) bool {
	return slices.Contains(a.ClusterList, id)
}

// Equal reports whether two attribute sets are identical in every
// attribute, including deep equality of AS_PATH, communities and
// cluster list. Route replacement logic uses it to tell a genuinely new
// route from an attribute-identical re-announcement.
func (a Attrs) Equal(b Attrs) bool {
	return a.Origin == b.Origin &&
		a.NextHop == b.NextHop &&
		a.MED == b.MED && a.HasMED == b.HasMED &&
		a.LocalPref == b.LocalPref && a.HasLocalPref == b.HasLocalPref &&
		a.AtomicAggregate == b.AtomicAggregate &&
		a.OriginatorID == b.OriginatorID &&
		slices.Equal(a.Communities, b.Communities) &&
		slices.Equal(a.ClusterList, b.ClusterList) &&
		slices.EqualFunc(a.ASPath, b.ASPath, func(x, y ASPathSegment) bool {
			return x.Set == y.Set && slices.Equal(x.ASNs, y.ASNs)
		})
}

// Clone returns a deep copy, so reflected or policy-modified routes do
// not alias the original's slices.
func (a Attrs) Clone() Attrs {
	out := a
	out.ASPath = make([]ASPathSegment, len(a.ASPath))
	for i, seg := range a.ASPath {
		out.ASPath[i] = ASPathSegment{Set: seg.Set, ASNs: slices.Clone(seg.ASNs)}
	}
	out.Communities = slices.Clone(a.Communities)
	out.ClusterList = slices.Clone(a.ClusterList)
	return out
}

// String renders the attributes compactly for logs.
func (a Attrs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "origin=%v path=%s", a.Origin, a.pathString())
	if a.NextHop.IsValid() {
		fmt.Fprintf(&b, " nh=%v", a.NextHop)
	}
	if a.HasLocalPref {
		fmt.Fprintf(&b, " lp=%d", a.LocalPref)
	}
	if a.HasMED {
		fmt.Fprintf(&b, " med=%d", a.MED)
	}
	if len(a.Communities) > 0 {
		fmt.Fprintf(&b, " comm=%v", a.Communities)
	}
	return b.String()
}

func (a Attrs) pathString() string {
	var parts []string
	for _, seg := range a.ASPath {
		var asns []string
		for _, asn := range seg.ASNs {
			asns = append(asns, fmt.Sprint(asn))
		}
		s := strings.Join(asns, " ")
		if seg.Set {
			s = "{" + s + "}"
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return "[]"
	}
	return strings.Join(parts, " ")
}

// marshal encodes the attributes in canonical (ascending type) order.
func (a Attrs) marshal() ([]byte, error) {
	var out []byte
	appendAttr := func(flags, typ byte, val []byte) {
		if len(val) > 255 {
			flags |= flagExtLen
			out = append(out, flags, typ)
			out = binary.BigEndian.AppendUint16(out, uint16(len(val)))
		} else {
			out = append(out, flags, typ, byte(len(val)))
		}
		out = append(out, val...)
	}

	appendAttr(flagTransitive, attrOrigin, []byte{byte(a.Origin)})

	var path []byte
	for _, seg := range a.ASPath {
		if len(seg.ASNs) == 0 || len(seg.ASNs) > 255 {
			return nil, fmt.Errorf("%w: AS path segment with %d ASNs", ErrBadAttributes, len(seg.ASNs))
		}
		segType := byte(2) // AS_SEQUENCE
		if seg.Set {
			segType = 1 // AS_SET
		}
		path = append(path, segType, byte(len(seg.ASNs)))
		for _, asn := range seg.ASNs {
			path = binary.BigEndian.AppendUint16(path, asn)
		}
	}
	appendAttr(flagTransitive, attrASPath, path)

	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return nil, fmt.Errorf("%w: NEXT_HOP must be IPv4, got %v", ErrBadAttributes, a.NextHop)
		}
		nh := a.NextHop.As4()
		appendAttr(flagTransitive, attrNextHop, nh[:])
	}
	if a.HasMED {
		appendAttr(flagOptional, attrMED, binary.BigEndian.AppendUint32(nil, a.MED))
	}
	if a.HasLocalPref {
		appendAttr(flagTransitive, attrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref))
	}
	if a.AtomicAggregate {
		appendAttr(flagTransitive, attrAtomicAggregate, nil)
	}
	if len(a.Communities) > 0 {
		val := make([]byte, 0, 4*len(a.Communities))
		for _, c := range a.Communities {
			val = binary.BigEndian.AppendUint32(val, uint32(c))
		}
		appendAttr(flagOptional|flagTransitive, attrCommunities, val)
	}
	if a.OriginatorID.IsValid() {
		if !a.OriginatorID.Is4() {
			return nil, fmt.Errorf("%w: ORIGINATOR_ID must be IPv4", ErrBadAttributes)
		}
		id := a.OriginatorID.As4()
		appendAttr(flagOptional, attrOriginatorID, id[:])
	}
	if len(a.ClusterList) > 0 {
		val := make([]byte, 0, 4*len(a.ClusterList))
		for _, id := range a.ClusterList {
			if !id.Is4() {
				return nil, fmt.Errorf("%w: CLUSTER_LIST entry must be IPv4", ErrBadAttributes)
			}
			b := id.As4()
			val = append(val, b[:]...)
		}
		appendAttr(flagOptional, attrClusterList, val)
	}
	return out, nil
}

// unmarshalAttrs decodes a path attribute block.
func unmarshalAttrs(buf []byte) (Attrs, error) {
	var a Attrs
	if len(buf) == 0 {
		return a, nil
	}
	var seen [256]bool // by attribute type
	for len(buf) > 0 {
		if len(buf) < 3 {
			return a, fmt.Errorf("%w: attribute header truncated", ErrTruncated)
		}
		flags, typ := buf[0], buf[1]
		var alen int
		var body []byte
		if flags&flagExtLen != 0 {
			if len(buf) < 4 {
				return a, fmt.Errorf("%w: extended length truncated", ErrTruncated)
			}
			alen = int(binary.BigEndian.Uint16(buf[2:4]))
			buf = buf[4:]
		} else {
			alen = int(buf[2])
			buf = buf[3:]
		}
		if len(buf) < alen {
			return a, fmt.Errorf("%w: attribute %d body", ErrTruncated, typ)
		}
		body, buf = buf[:alen], buf[alen:]
		if seen[typ] {
			return a, fmt.Errorf("%w: duplicate attribute %d", ErrBadAttributes, typ)
		}
		seen[typ] = true

		switch typ {
		case attrOrigin:
			if len(body) != 1 || body[0] > 2 {
				return a, fmt.Errorf("%w: ORIGIN", ErrBadAttributes)
			}
			a.Origin = Origin(body[0])
		case attrASPath:
			segs, err := unmarshalASPath(body)
			if err != nil {
				return a, err
			}
			a.ASPath = segs
		case attrNextHop:
			if len(body) != 4 {
				return a, fmt.Errorf("%w: NEXT_HOP", ErrBadAttributes)
			}
			a.NextHop = netip.AddrFrom4([4]byte(body))
		case attrMED:
			if len(body) != 4 {
				return a, fmt.Errorf("%w: MED", ErrBadAttributes)
			}
			a.MED = binary.BigEndian.Uint32(body)
			a.HasMED = true
		case attrLocalPref:
			if len(body) != 4 {
				return a, fmt.Errorf("%w: LOCAL_PREF", ErrBadAttributes)
			}
			a.LocalPref = binary.BigEndian.Uint32(body)
			a.HasLocalPref = true
		case attrAtomicAggregate:
			if len(body) != 0 {
				return a, fmt.Errorf("%w: ATOMIC_AGGREGATE", ErrBadAttributes)
			}
			a.AtomicAggregate = true
		case attrCommunities:
			if len(body)%4 != 0 {
				return a, fmt.Errorf("%w: COMMUNITIES", ErrBadAttributes)
			}
			if len(body) > 0 {
				a.Communities = make([]Community, 0, len(body)/4)
			}
			for i := 0; i < len(body); i += 4 {
				a.Communities = append(a.Communities, Community(binary.BigEndian.Uint32(body[i:i+4])))
			}
		case attrOriginatorID:
			if len(body) != 4 {
				return a, fmt.Errorf("%w: ORIGINATOR_ID", ErrBadAttributes)
			}
			a.OriginatorID = netip.AddrFrom4([4]byte(body))
		case attrClusterList:
			if len(body)%4 != 0 {
				return a, fmt.Errorf("%w: CLUSTER_LIST", ErrBadAttributes)
			}
			if len(body) > 0 {
				a.ClusterList = make([]netip.Addr, 0, len(body)/4)
			}
			for i := 0; i < len(body); i += 4 {
				a.ClusterList = append(a.ClusterList, netip.AddrFrom4([4]byte(body[i:i+4])))
			}
		default:
			// Unknown optional attributes are tolerated and dropped;
			// unknown well-known attributes are an error (RFC 4271 §5).
			if flags&flagOptional == 0 {
				return a, fmt.Errorf("%w: unrecognized well-known attribute %d", ErrBadAttributes, typ)
			}
		}
	}
	return a, nil
}

func unmarshalASPath(body []byte) ([]ASPathSegment, error) {
	var segs []ASPathSegment
	for len(body) > 0 {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: AS_PATH segment header", ErrTruncated)
		}
		segType, count := body[0], int(body[1])
		if segType != 1 && segType != 2 {
			return nil, fmt.Errorf("%w: AS_PATH segment type %d", ErrBadAttributes, segType)
		}
		if count == 0 {
			return nil, fmt.Errorf("%w: empty AS_PATH segment", ErrBadAttributes)
		}
		need := 2 + 2*count
		if len(body) < need {
			return nil, fmt.Errorf("%w: AS_PATH segment body", ErrTruncated)
		}
		seg := ASPathSegment{Set: segType == 1, ASNs: make([]uint16, count)}
		for i := 0; i < count; i++ {
			seg.ASNs[i] = binary.BigEndian.Uint16(body[2+2*i : 4+2*i])
		}
		segs = append(segs, seg)
		body = body[need:]
	}
	return segs, nil
}
