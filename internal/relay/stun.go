// Package relay implements the media-relay front of VNS: a STUN/TURN-
// style authentication protocol (RFC 5389 message framing) served over
// UDP, one server per PoP, and the multipath selection that splits a
// relayed flow across overlay paths. Which PoP's relay a client's
// request reaches — the anycast catchment behind the paper's
// incoming-traffic analysis (Figure 7) — is vns.Peering.EntryPoP.
//
// Media relaying itself (TURN allocations carrying RTP) is modeled at
// the level the experiments need: authentication requests and relay
// endpoints that media sessions are pinned to.
package relay

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
)

// STUN message framing (RFC 5389 §6).
const (
	stunHeaderLen  = 20
	stunMagic      = 0x2112A442
	maxSTUNMsgSize = 1500
)

// STUN message types used by the auth front end.
const (
	// TypeBindingRequest / TypeBindingResponse implement reachability
	// checks.
	TypeBindingRequest  uint16 = 0x0001
	TypeBindingResponse uint16 = 0x0101
	// TypeAllocateRequest / responses implement TURN-style relay
	// allocation with username authentication.
	TypeAllocateRequest  uint16 = 0x0003
	TypeAllocateResponse uint16 = 0x0103
	TypeAllocateError    uint16 = 0x0113
)

// STUN attribute types.
const (
	AttrUsername      uint16 = 0x0006
	AttrErrorCode     uint16 = 0x0009
	AttrXORMappedAddr uint16 = 0x0020
	AttrRealm         uint16 = 0x0014
)

// ErrSTUNMalformed reports an undecodable STUN message.
var ErrSTUNMalformed = errors.New("relay: malformed STUN message")

// STUNMessage is a parsed STUN/TURN message.
type STUNMessage struct {
	Type        uint16
	Transaction [12]byte
	Attrs       []STUNAttr
}

// STUNAttr is one TLV attribute.
type STUNAttr struct {
	Type  uint16
	Value []byte
}

// NewTransaction fills a random transaction ID.
func NewTransaction() (t [12]byte) {
	if _, err := rand.Read(t[:]); err != nil {
		panic("relay: no entropy: " + err.Error())
	}
	return t
}

// Attr returns the first attribute of the given type.
func (m *STUNMessage) Attr(typ uint16) ([]byte, bool) {
	for _, a := range m.Attrs {
		if a.Type == typ {
			return a.Value, true
		}
	}
	return nil, false
}

// Username returns the USERNAME attribute as a string.
func (m *STUNMessage) Username() string {
	v, _ := m.Attr(AttrUsername)
	return string(v)
}

// Marshal encodes the message with RFC 5389 framing (attributes padded
// to 4 bytes, magic cookie included).
func (m *STUNMessage) Marshal() ([]byte, error) {
	var body []byte
	for _, a := range m.Attrs {
		if len(a.Value) > 0xFFFF {
			return nil, fmt.Errorf("%w: attribute too long", ErrSTUNMalformed)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint16(hdr[0:2], a.Type)
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(a.Value)))
		body = append(body, hdr[:]...)
		body = append(body, a.Value...)
		for len(body)%4 != 0 {
			body = append(body, 0)
		}
	}
	if stunHeaderLen+len(body) > maxSTUNMsgSize {
		return nil, fmt.Errorf("%w: message too large", ErrSTUNMalformed)
	}
	out := make([]byte, stunHeaderLen+len(body))
	binary.BigEndian.PutUint16(out[0:2], m.Type&0x3FFF)
	binary.BigEndian.PutUint16(out[2:4], uint16(len(body)))
	binary.BigEndian.PutUint32(out[4:8], stunMagic)
	copy(out[8:20], m.Transaction[:])
	copy(out[20:], body)
	return out, nil
}

// UnmarshalSTUN decodes one message.
func UnmarshalSTUN(buf []byte) (*STUNMessage, error) {
	if len(buf) < stunHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrSTUNMalformed, len(buf))
	}
	if buf[0]&0xC0 != 0 {
		return nil, fmt.Errorf("%w: top bits set", ErrSTUNMalformed)
	}
	if binary.BigEndian.Uint32(buf[4:8]) != stunMagic {
		return nil, fmt.Errorf("%w: bad magic cookie", ErrSTUNMalformed)
	}
	m := &STUNMessage{Type: binary.BigEndian.Uint16(buf[0:2])}
	copy(m.Transaction[:], buf[8:20])
	bodyLen := int(binary.BigEndian.Uint16(buf[2:4]))
	if stunHeaderLen+bodyLen != len(buf) {
		return nil, fmt.Errorf("%w: length %d vs %d bytes", ErrSTUNMalformed, bodyLen, len(buf)-stunHeaderLen)
	}
	body := buf[stunHeaderLen:]
	for len(body) > 0 {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: attribute header", ErrSTUNMalformed)
		}
		typ := binary.BigEndian.Uint16(body[0:2])
		alen := int(binary.BigEndian.Uint16(body[2:4]))
		padded := (alen + 3) / 4 * 4
		if len(body) < 4+padded {
			return nil, fmt.Errorf("%w: attribute body", ErrSTUNMalformed)
		}
		val := make([]byte, alen)
		copy(val, body[4:4+alen])
		m.Attrs = append(m.Attrs, STUNAttr{Type: typ, Value: val})
		body = body[4+padded:]
	}
	return m, nil
}
