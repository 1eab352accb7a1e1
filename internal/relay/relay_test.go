package relay

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestSTUNRoundTrip(t *testing.T) {
	in := &STUNMessage{
		Type:        TypeAllocateRequest,
		Transaction: NewTransaction(),
		Attrs: []STUNAttr{
			{Type: AttrUsername, Value: []byte("user@example")},
			{Type: AttrRealm, Value: []byte("vns")},
		},
	}
	buf, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSTUN(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Transaction != in.Transaction {
		t.Errorf("header mismatch: %+v", out)
	}
	if out.Username() != "user@example" {
		t.Errorf("username = %q", out.Username())
	}
	if v, ok := out.Attr(AttrRealm); !ok || string(v) != "vns" {
		t.Errorf("realm = %q %v", v, ok)
	}
	if _, ok := out.Attr(AttrErrorCode); ok {
		t.Error("phantom attribute")
	}
}

func TestSTUNPaddingOddLengths(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		in := &STUNMessage{
			Type:        TypeBindingRequest,
			Transaction: [12]byte{1, 2, 3},
			Attrs:       []STUNAttr{{Type: AttrUsername, Value: payload}},
		}
		buf, err := in.Marshal()
		if err != nil {
			return false
		}
		if len(buf)%4 != 0 {
			return false // framing must stay 32-bit aligned
		}
		out, err := UnmarshalSTUN(buf)
		if err != nil {
			return false
		}
		return string(out.Attrs[0].Value) == string(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSTUNRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10),
		func() []byte { // bad magic
			m := &STUNMessage{Type: TypeBindingRequest}
			b, _ := m.Marshal()
			b[4] = 0
			return b
		}(),
		func() []byte { // length mismatch
			m := &STUNMessage{Type: TypeBindingRequest}
			b, _ := m.Marshal()
			b[3] = 40
			return b
		}(),
		func() []byte { // top bits set
			m := &STUNMessage{Type: TypeBindingRequest}
			b, _ := m.Marshal()
			b[0] |= 0xC0
			return b
		}(),
	}
	for i, c := range cases {
		if _, err := UnmarshalSTUN(c); err == nil {
			t.Errorf("case %d: accepted garbage", i)
		}
	}
}

// decodeXORMappedAddr parses an XOR-MAPPED-ADDRESS value back into an
// address and port.
func decodeXORMappedAddr(v []byte) (netip.AddrPort, error) {
	if len(v) != 8 || v[1] != 0x01 {
		return netip.AddrPort{}, ErrSTUNMalformed
	}
	port := binary.BigEndian.Uint16(v[2:4]) ^ uint16(stunMagic>>16)
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], stunMagic)
	var ip [4]byte
	for i := 0; i < 4; i++ {
		ip[i] = v[4+i] ^ magic[i]
	}
	return netip.AddrPortFrom(netip.AddrFrom4(ip), port), nil
}

// bind performs a binding request and returns the reflexive address the
// server saw.
func bind(c *Client, timeout time.Duration) (string, error) {
	req := &STUNMessage{Type: TypeBindingRequest, Transaction: NewTransaction()}
	resp, err := c.roundTrip(req, timeout)
	if err != nil {
		return "", err
	}
	if resp.Type != TypeBindingResponse {
		return "", fmt.Errorf("relay: unexpected response type %#x", resp.Type)
	}
	v, ok := resp.Attr(AttrXORMappedAddr)
	if !ok {
		return "", fmt.Errorf("relay: no XOR-MAPPED-ADDRESS")
	}
	ap, err := decodeXORMappedAddr(v)
	if err != nil {
		return "", err
	}
	return ap.String(), nil
}

func TestServerBinding(t *testing.T) {
	srv, err := NewServer("AMS", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := bind(c, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Error("empty reflexive address")
	}
}

func TestServerAllocateAuth(t *testing.T) {
	auth := func(u string) bool { return u == "alice" }
	srv, err := NewServer("LON", "127.0.0.1:0", auth)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	realm, err := c.Allocate("alice", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if realm != "vns.LON" {
		t.Errorf("realm = %q", realm)
	}
	if _, err := c.Allocate("mallory", 2*time.Second); err == nil {
		t.Error("bad user should be rejected")
	}
}

func TestXORMappedAddrRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte, port uint16) bool {
		if port == 0 {
			port = 1
		}
		v := make([]byte, 8)
		v[1] = 0x01
		// Build via server-side encoder by faking a UDPAddr is awkward;
		// instead verify decode(encode(x)) through the public pieces:
		// encode manually the same way xorMappedAddr does.
		v[2] = byte(port>>8) ^ 0x21
		v[3] = byte(port) ^ 0x12
		magic := []byte{0x21, 0x12, 0xA4, 0x42}
		ip := []byte{a, b, c, d}
		for i := 0; i < 4; i++ {
			v[4+i] = ip[i] ^ magic[i]
		}
		ap, err := decodeXORMappedAddr(v)
		if err != nil {
			return false
		}
		got := ap.Addr().As4()
		return got == [4]byte{a, b, c, d} && ap.Port() == port
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := decodeXORMappedAddr([]byte{1}); err == nil {
		t.Error("short value should fail")
	}
}

func TestServerIgnoresGarbageDatagrams(t *testing.T) {
	srv, err := NewServer("SIN", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send garbage first; the server must survive and answer the next
	// valid request.
	if _, err := c.conn.Write([]byte("not stun")); err != nil {
		t.Fatal(err)
	}
	if _, err := bind(c, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}
