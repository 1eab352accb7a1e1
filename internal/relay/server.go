package relay

import (
	"encoding/binary"
	"net"
	"sync"
)

// AuthFunc validates a username; the deployment uses the TURN relays as
// the authentication and access-control point for the service.
type AuthFunc func(username string) bool

// Server is a TURN-style authentication relay front end over UDP. Each
// PoP runs one; all share the same anycast address in the deployment.
type Server struct {
	// PoP is the hosting PoP's code, named in the realm it grants.
	PoP string

	conn net.PacketConn
	auth AuthFunc

	wg       sync.WaitGroup
	closeOne sync.Once
}

// NewServer starts a relay auth server on addr ("127.0.0.1:0" in tests;
// one per PoP in the deployment).
func NewServer(pop, addr string, auth AuthFunc) (*Server, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{PoP: pop, conn: conn, auth: auth}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	var err error
	s.closeOne.Do(func() {
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

func (s *Server) serve() {
	defer s.wg.Done()
	buf := make([]byte, maxSTUNMsgSize)
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			return
		}
		msg, err := UnmarshalSTUN(buf[:n])
		if err != nil {
			continue // silently drop garbage, as STUN servers do
		}
		resp := s.handle(msg, from)
		if resp == nil {
			continue
		}
		out, err := resp.Marshal()
		if err != nil {
			continue
		}
		_, _ = s.conn.WriteTo(out, from)
	}
}

func (s *Server) handle(msg *STUNMessage, from net.Addr) *STUNMessage {
	switch msg.Type {
	case TypeBindingRequest:
		resp := &STUNMessage{Type: TypeBindingResponse, Transaction: msg.Transaction}
		if addr, ok := xorMappedAddr(from); ok {
			resp.Attrs = append(resp.Attrs, STUNAttr{Type: AttrXORMappedAddr, Value: addr})
		}
		return resp
	case TypeAllocateRequest:
		if s.auth != nil && !s.auth(msg.Username()) {
			return &STUNMessage{
				Type:        TypeAllocateError,
				Transaction: msg.Transaction,
				Attrs:       []STUNAttr{{Type: AttrErrorCode, Value: []byte{0, 0, 4, 1}}}, // 401
			}
		}
		resp := &STUNMessage{Type: TypeAllocateResponse, Transaction: msg.Transaction}
		resp.Attrs = append(resp.Attrs, STUNAttr{Type: AttrRealm, Value: []byte("vns." + s.PoP)})
		return resp
	default:
		return nil
	}
}

// xorMappedAddr encodes an XOR-MAPPED-ADDRESS attribute value (RFC 5389
// §15.2) for an IPv4 UDP source.
func xorMappedAddr(a net.Addr) ([]byte, bool) {
	udp, ok := a.(*net.UDPAddr)
	if !ok {
		return nil, false
	}
	ap := udp.AddrPort()
	addr := ap.Addr().Unmap()
	if !addr.Is4() {
		return nil, false
	}
	v := make([]byte, 8)
	v[0] = 0
	v[1] = 0x01 // family IPv4
	binary.BigEndian.PutUint16(v[2:4], ap.Port()^uint16(stunMagic>>16))
	ip := addr.As4()
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], stunMagic)
	for i := 0; i < 4; i++ {
		v[4+i] = ip[i] ^ magic[i]
	}
	return v, true
}
