package bgp

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m, err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestOpenRoundTrip(t *testing.T) {
	in := Open{Version: 4, AS: 65001, HoldTime: 90, ID: addr("10.0.0.1")}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got %+v, want %+v", got, in)
	}
}

func TestOpenRejectsNonV4ID(t *testing.T) {
	_, err := Marshal(Open{Version: 4, AS: 1, ID: addr("::1")})
	if err == nil {
		t.Error("IPv6 identifier should fail")
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	got := roundTrip(t, Keepalive{})
	if _, ok := got.(Keepalive); !ok {
		t.Errorf("got %T", got)
	}
	buf, _ := Marshal(Keepalive{})
	if len(buf) != 19 {
		t.Errorf("keepalive is %d bytes, want 19", len(buf))
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	in := Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")}
	got := roundTrip(t, in).(Notification)
	if got.Code != in.Code || got.Subcode != in.Subcode || !bytes.Equal(got.Data, in.Data) {
		t.Errorf("got %+v, want %+v", got, in)
	}
}

func fullAttrs() Attrs {
	return Attrs{
		Origin: OriginEGP,
		ASPath: []ASPathSegment{
			{ASNs: []uint16{65001, 65002}},
			{Set: true, ASNs: []uint16{65010, 65011}},
		},
		NextHop:         addr("192.0.2.1"),
		MED:             50,
		HasMED:          true,
		LocalPref:       400,
		HasLocalPref:    true,
		AtomicAggregate: true,
		Communities:     []Community{CommunityNoExport, Community(65001<<16 | 100)},
		OriginatorID:    addr("10.0.0.9"),
		ClusterList:     []netip.Addr{addr("10.0.0.10"), addr("10.0.0.11")},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := Update{
		Withdrawn: []netip.Prefix{prefix("198.51.100.0/24")},
		Attrs:     fullAttrs(),
		NLRI:      []netip.Prefix{prefix("203.0.113.0/24"), prefix("10.0.0.0/8"), prefix("172.16.0.0/12")},
	}
	got := roundTrip(t, in).(Update)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got:\n%+v\nwant:\n%+v", got, in)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	in := Update{Withdrawn: []netip.Prefix{prefix("10.1.0.0/16")}}
	got := roundTrip(t, in).(Update)
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != in.Withdrawn[0] {
		t.Errorf("got %+v", got)
	}
	if len(got.NLRI) != 0 {
		t.Errorf("unexpected NLRI: %v", got.NLRI)
	}
}

func TestUpdateEmptyPrefixes(t *testing.T) {
	// A default route announcement: 0.0.0.0/0 encodes as a single zero
	// length byte.
	in := Update{
		Attrs: Attrs{NextHop: addr("192.0.2.1"), ASPath: []ASPathSegment{{ASNs: []uint16{1}}}},
		NLRI:  []netip.Prefix{prefix("0.0.0.0/0")},
	}
	got := roundTrip(t, in).(Update)
	if got.NLRI[0] != prefix("0.0.0.0/0") {
		t.Errorf("default route mangled: %v", got.NLRI)
	}
}

func TestUpdateHostRoute(t *testing.T) {
	in := Update{
		Attrs: Attrs{NextHop: addr("192.0.2.1"), ASPath: []ASPathSegment{{ASNs: []uint16{1}}}},
		NLRI:  []netip.Prefix{prefix("192.0.2.55/32")},
	}
	got := roundTrip(t, in).(Update)
	if got.NLRI[0] != prefix("192.0.2.55/32") {
		t.Errorf("host route mangled: %v", got.NLRI)
	}
}

func TestNLRIRejectsIPv6(t *testing.T) {
	_, err := Marshal(Update{NLRI: []netip.Prefix{prefix("2001:db8::/32")}})
	if err == nil {
		t.Error("IPv6 NLRI should fail to marshal")
	}
}

func TestUnmarshalBadMarker(t *testing.T) {
	buf, _ := Marshal(Keepalive{})
	buf[3] = 0
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadMarker) {
		t.Errorf("err = %v, want ErrBadMarker", err)
	}
}

func TestUnmarshalBadLength(t *testing.T) {
	buf, _ := Marshal(Keepalive{})
	buf[16], buf[17] = 0, 5 // length 5 < header
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
}

func TestUnmarshalBadType(t *testing.T) {
	buf, _ := Marshal(Keepalive{})
	buf[18] = 99
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal([]byte{0xFF, 0xFF}); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestUnmarshalKeepaliveWithBody(t *testing.T) {
	buf, _ := Marshal(Keepalive{})
	buf = append(buf, 0)
	buf[16], buf[17] = 0, 20
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
}

func TestUnmarshalDuplicateAttribute(t *testing.T) {
	u := Update{
		Attrs: Attrs{NextHop: addr("192.0.2.1"), ASPath: []ASPathSegment{{ASNs: []uint16{1}}}},
		NLRI:  []netip.Prefix{prefix("10.0.0.0/8")},
	}
	buf, _ := Marshal(u)
	// Append a second ORIGIN attribute by rewriting the body: simpler to
	// decode body, duplicate the origin attr bytes (flags 0x40, type 1,
	// len 1, val 0).
	dup := []byte{0x40, 1, 1, 0}
	// Splice into attributes: find attribute length field and extend.
	body := buf[19:]
	wLen := int(body[0])<<8 | int(body[1])
	aOff := 2 + wLen
	aLen := int(body[aOff])<<8 | int(body[aOff+1])
	newBody := append([]byte{}, body[:aOff]...)
	newBody = append(newBody, byte((aLen+4)>>8), byte(aLen+4))
	newBody = append(newBody, body[aOff+2:aOff+2+aLen]...)
	newBody = append(newBody, dup...)
	newBody = append(newBody, body[aOff+2+aLen:]...)
	msg := append([]byte{}, buf[:19]...)
	msg = append(msg, newBody...)
	total := len(msg)
	msg[16], msg[17] = byte(total>>8), byte(total)
	if _, err := Unmarshal(msg); !errors.Is(err, ErrBadAttributes) {
		t.Errorf("err = %v, want ErrBadAttributes", err)
	}
}

func TestUnmarshalNLRIBadPrefixLen(t *testing.T) {
	if _, err := unmarshalNLRI([]byte{33, 1, 2, 3, 4, 5}); err == nil {
		t.Error("prefix length 33 should fail")
	}
}

func TestUnmarshalNLRITrailingBits(t *testing.T) {
	// /8 prefix with nonzero bits beyond the mask must be rejected.
	if _, err := unmarshalNLRI([]byte{8, 0xFF}); err != nil {
		t.Errorf("valid /8: %v", err)
	}
	// A /4 prefix whose byte has low bits set is invalid.
	if _, err := unmarshalNLRI([]byte{4, 0xFF}); err == nil {
		t.Error("bits beyond prefix length should fail")
	}
}

func TestAttrsHelpers(t *testing.T) {
	a := fullAttrs()
	if got := a.ASPathLen(); got != 3 { // 2 sequence + 1 for the set
		t.Errorf("ASPathLen = %d, want 3", got)
	}
	if got := a.FirstAS(); got != 65001 {
		t.Errorf("FirstAS = %d", got)
	}
	if !a.HasClusterLoop(addr("10.0.0.10")) || a.HasClusterLoop(addr("10.0.0.99")) {
		t.Error("HasClusterLoop wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := fullAttrs()
	b := a.Clone()
	b.ASPath[0].ASNs[0] = 1
	b.Communities[0] = 0
	b.ClusterList[0] = addr("1.1.1.1")
	if a.ASPath[0].ASNs[0] == 1 || a.Communities[0] == 0 || a.ClusterList[0] == addr("1.1.1.1") {
		t.Error("Clone shares memory with original")
	}
}

func TestCommunityString(t *testing.T) {
	if CommunityNoExport.String() != "no-export" {
		t.Error("no-export name")
	}
	if got := Community(65001<<16 | 70).String(); got != "65001:70" {
		t.Errorf("community string = %q", got)
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(a, b, c, d byte, bits uint8, asn uint16, lp, med uint32, hasLP, hasMED bool) bool {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), int(bits%33)).Masked()
		in := Update{
			Attrs: Attrs{
				Origin:       Origin(asn % 3),
				ASPath:       []ASPathSegment{{ASNs: []uint16{asn | 1}}},
				NextHop:      netip.AddrFrom4([4]byte{c, d, a, b | 1}),
				LocalPref:    lp,
				HasLocalPref: hasLP,
				MED:          med,
				HasMED:       hasMED,
			},
			NLRI: []netip.Prefix{p},
		}
		if !hasLP {
			in.Attrs.LocalPref = 0
		}
		if !hasMED {
			in.Attrs.MED = 0
		}
		buf, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalFuzzResilience(t *testing.T) {
	// Random garbage bodies must error or decode, never panic.
	f := func(body []byte, typ uint8) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("unmarshalBody panicked")
			}
		}()
		_, _ = unmarshalBody(MessageType(typ%5+1), body)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestMessageTypeString(t *testing.T) {
	if MsgOpen.String() != "OPEN" || MsgUpdate.String() != "UPDATE" {
		t.Error("type names")
	}
	if MessageType(9).String() != "TYPE(9)" {
		t.Error("unknown type name")
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || OriginIncomplete.String() != "incomplete" {
		t.Error("origin names")
	}
}

func TestAttrsString(t *testing.T) {
	s := fullAttrs().String()
	for _, want := range []string{"origin=EGP", "65001 65002", "{65010 65011}", "lp=400", "med=50", "no-export"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("attrs string %q missing %q", s, want)
		}
	}
}

func BenchmarkMarshalUpdate(b *testing.B) {
	u := Update{Attrs: fullAttrs(), NLRI: []netip.Prefix{prefix("203.0.113.0/24")}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalUpdate(b *testing.B) {
	u := Update{Attrs: fullAttrs(), NLRI: []netip.Prefix{prefix("203.0.113.0/24")}}
	buf, _ := Marshal(u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
