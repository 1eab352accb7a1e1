// Package bgp implements the BGP-4 wire protocol (RFC 4271) subset the
// VNS control plane needs: the OPEN / UPDATE / KEEPALIVE / NOTIFICATION
// message codec, path attributes including the route-reflection
// attributes of RFC 4456 and communities of RFC 1997, and a session type
// that runs the protocol over a net.Conn.
//
// The deployed system modifies a Quagga route reflector; this package is
// the equivalent substrate: it lets the geo route reflector in
// internal/core and the egress routers in internal/vns speak real BGP to
// each other over TCP (see cmd/vnsd and examples/georouting), while the
// large-scale experiments drive the same RIB logic in-process.
//
// ASNs are 2-octet, as was near-universal at the time of the paper.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
)

// Message is one BGP protocol message.
type Message interface {
	// Type returns the message type code from the common header.
	Type() MessageType
}

// MessageType identifies the BGP message kind.
type MessageType uint8

// Message type codes (RFC 4271 §4.1).
const (
	MsgOpen         MessageType = 1
	MsgUpdate       MessageType = 2
	MsgNotification MessageType = 3
	MsgKeepalive    MessageType = 4
)

func (t MessageType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

const (
	headerLen = 19   // marker(16) + length(2) + type(1)
	maxMsgLen = 4096 // RFC 4271 maximum message size
	version4  = 4    // protocol version
	minMsgLen = 19   // a KEEPALIVE is exactly the header
	markerLen = 16   // all-ones marker
)

// marker is the all-ones marker every message starts with.
var marker = [markerLen]byte{
	0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
	0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
}

// Protocol error sentinels. Notification codes carry finer detail.
var (
	ErrBadMarker     = errors.New("bgp: connection not synchronized (bad marker)")
	ErrBadLength     = errors.New("bgp: bad message length")
	ErrBadType       = errors.New("bgp: bad message type")
	ErrTruncated     = errors.New("bgp: truncated message")
	ErrBadAttributes = errors.New("bgp: malformed path attributes")
)

// Open is the OPEN message (RFC 4271 §4.2). Optional parameters are not
// modeled; the deployment uses plain 2-octet-AS IPv4 unicast sessions.
type Open struct {
	Version  uint8
	AS       uint16
	HoldTime uint16 // seconds; 0 disables keepalives
	ID       netip.Addr
}

func (Open) Type() MessageType { return MsgOpen }

// Update is the UPDATE message (RFC 4271 §4.3): withdrawn routes, path
// attributes, and the NLRI the attributes apply to.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     Attrs
	NLRI      []netip.Prefix
}

func (Update) Type() MessageType { return MsgUpdate }

// Notification is the NOTIFICATION message (RFC 4271 §4.5); sending one
// closes the session.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

func (Notification) Type() MessageType { return MsgNotification }

func (n Notification) Error() string {
	return fmt.Sprintf("bgp: notification code %d subcode %d", n.Code, n.Subcode)
}

// Notification error codes (RFC 4271 §6).
const (
	NotifMessageHeaderError = 1
	NotifOpenMessageError   = 2
	NotifUpdateMessageError = 3
	NotifHoldTimerExpired   = 4
	NotifFSMError           = 5
	NotifCease              = 6
)

// Keepalive is the KEEPALIVE message: just the common header.
type Keepalive struct{}

func (Keepalive) Type() MessageType { return MsgKeepalive }

// Marshal encodes m into wire format, including the common header.
func Marshal(m Message) ([]byte, error) {
	return appendMessage(nil, m)
}

// appendMessage appends m's wire encoding, common header included, to
// dst. On error dst is returned unchanged, so one message that cannot be
// encoded leaves the messages already in dst intact.
func appendMessage(dst []byte, m Message) ([]byte, error) {
	body, err := marshalBody(m)
	if err != nil {
		return dst, err
	}
	total := headerLen + len(body)
	if total > maxMsgLen {
		return dst, fmt.Errorf("%w: %d bytes exceeds maximum %d", ErrBadLength, total, maxMsgLen)
	}
	dst = slices.Grow(dst, total)
	dst = append(dst, marker[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	dst = append(dst, uint8(m.Type()))
	return append(dst, body...), nil
}

func marshalBody(m Message) ([]byte, error) {
	switch v := m.(type) {
	case Open, *Open:
		o, ok := m.(Open)
		if !ok {
			o = *m.(*Open)
		}
		return marshalOpen(o)
	case Update:
		return marshalUpdate(v)
	case *Update:
		return marshalUpdate(*v)
	case Notification:
		return marshalNotification(v)
	case *Notification:
		return marshalNotification(*v)
	case Keepalive, *Keepalive:
		return nil, nil
	default:
		return nil, fmt.Errorf("bgp: cannot marshal %T", m)
	}
}

func marshalOpen(o Open) ([]byte, error) {
	if !o.ID.Is4() {
		return nil, fmt.Errorf("bgp: OPEN requires an IPv4 identifier, got %v", o.ID)
	}
	body := make([]byte, 10)
	body[0] = o.Version
	binary.BigEndian.PutUint16(body[1:3], o.AS)
	binary.BigEndian.PutUint16(body[3:5], o.HoldTime)
	id := o.ID.As4()
	copy(body[5:9], id[:])
	body[9] = 0 // no optional parameters
	return body, nil
}

func marshalUpdate(u Update) ([]byte, error) {
	withdrawn, err := marshalNLRI(u.Withdrawn)
	if err != nil {
		return nil, fmt.Errorf("bgp: withdrawn routes: %w", err)
	}
	var attrs []byte
	if len(u.NLRI) > 0 || !u.Attrs.isZero() {
		attrs, err = u.Attrs.marshal()
		if err != nil {
			return nil, err
		}
	}
	nlri, err := marshalNLRI(u.NLRI)
	if err != nil {
		return nil, fmt.Errorf("bgp: NLRI: %w", err)
	}
	body := make([]byte, 0, 4+len(withdrawn)+len(attrs)+len(nlri))
	body = binary.BigEndian.AppendUint16(body, uint16(len(withdrawn)))
	body = append(body, withdrawn...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = append(body, nlri...)
	return body, nil
}

func marshalNotification(n Notification) ([]byte, error) {
	body := make([]byte, 2+len(n.Data))
	body[0] = n.Code
	body[1] = n.Subcode
	copy(body[2:], n.Data)
	return body, nil
}

// peeker is what nextFrame reads from: the session's *bufio.Reader, or
// an exactReader for ReadMessage.
type peeker interface {
	Peek(n int) ([]byte, error)
}

// nextFrame frames the next message in r: it checks the marker and the
// length and returns the message's type and body. The body aliases r's
// buffer, so it must be decoded (every decoded field is a copy) before
// r moves on; a *bufio.Reader moves on with Discard(headerLen+len(body)).
func nextFrame(r peeker) (MessageType, []byte, error) {
	hdr, err := r.Peek(headerLen)
	if err != nil {
		return 0, nil, err
	}
	if len(hdr) < headerLen {
		return 0, nil, ErrTruncated
	}
	if [markerLen]byte(hdr[:markerLen]) != marker {
		return 0, nil, ErrBadMarker
	}
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	if length < minMsgLen || length > maxMsgLen {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	msg, err := r.Peek(length)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	if len(msg) < length {
		return 0, nil, ErrTruncated
	}
	return MessageType(msg[18]), msg[headerLen:length], nil
}

// exactReader is a peeker over an unbuffered source that reads no byte
// past what Peek asks for, so the source's next message stays unread.
type exactReader struct {
	r   io.Reader
	buf []byte
}

func (e *exactReader) Peek(n int) ([]byte, error) {
	if have := len(e.buf); have < n {
		e.buf = slices.Grow(e.buf, n-have)[:n]
		if _, err := io.ReadFull(e.r, e.buf[have:]); err != nil {
			return nil, err
		}
	}
	return e.buf[:n], nil
}

// ReadMessage reads and decodes one message from r, reading no byte
// past it.
func ReadMessage(r io.Reader) (Message, error) {
	t, body, err := nextFrame(&exactReader{r: r})
	if err != nil {
		return nil, err
	}
	return unmarshalBody(t, body)
}

// Unmarshal decodes one complete wire message from buf.
func Unmarshal(buf []byte) (Message, error) {
	if len(buf) < headerLen {
		return nil, ErrTruncated
	}
	for i := 0; i < markerLen; i++ {
		if buf[i] != 0xFF {
			return nil, ErrBadMarker
		}
	}
	length := int(binary.BigEndian.Uint16(buf[16:18]))
	if length != len(buf) || length < minMsgLen || length > maxMsgLen {
		return nil, fmt.Errorf("%w: header says %d, have %d", ErrBadLength, length, len(buf))
	}
	return unmarshalBody(MessageType(buf[18]), buf[headerLen:])
}

func unmarshalBody(t MessageType, body []byte) (Message, error) {
	switch t {
	case MsgOpen:
		return unmarshalOpen(body)
	case MsgUpdate:
		u, err := decodeUpdate(body)
		if err != nil {
			return nil, err
		}
		return u, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: NOTIFICATION body %d bytes", ErrTruncated, len(body))
		}
		data := make([]byte, len(body)-2)
		copy(data, body[2:])
		return Notification{Code: body[0], Subcode: body[1], Data: data}, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: KEEPALIVE with %d-byte body", ErrBadLength, len(body))
		}
		return Keepalive{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
}

func unmarshalOpen(body []byte) (Message, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("%w: OPEN body %d bytes", ErrTruncated, len(body))
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return nil, fmt.Errorf("%w: OPEN optional parameters", ErrBadLength)
	}
	var id [4]byte
	copy(id[:], body[5:9])
	return Open{
		Version:  body[0],
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		ID:       netip.AddrFrom4(id),
	}, nil
}

// decodeUpdate decodes an UPDATE body into a value of its own: no field
// aliases body.
func decodeUpdate(body []byte) (Update, error) {
	if len(body) < 4 {
		return Update{}, fmt.Errorf("%w: UPDATE body %d bytes", ErrTruncated, len(body))
	}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wLen > len(body) {
		return Update{}, fmt.Errorf("%w: withdrawn length %d", ErrBadLength, wLen)
	}
	withdrawn, err := unmarshalNLRI(body[2 : 2+wLen])
	if err != nil {
		return Update{}, err
	}
	rest := body[2+wLen:]
	if len(rest) < 2 {
		return Update{}, fmt.Errorf("%w: attribute length field", ErrTruncated)
	}
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+aLen > len(rest) {
		return Update{}, fmt.Errorf("%w: attribute length %d", ErrBadLength, aLen)
	}
	attrs, err := unmarshalAttrs(rest[2 : 2+aLen])
	if err != nil {
		return Update{}, err
	}
	nlri, err := unmarshalNLRI(rest[2+aLen:])
	if err != nil {
		return Update{}, err
	}
	return Update{Withdrawn: withdrawn, Attrs: attrs, NLRI: nlri}, nil
}
