package media

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
)

// This file implements SIP-lite: the small subset of SIP (RFC 3261)
// syntax the echo servers need — INVITE / ACK / BYE requests and
// numeric responses over a reliable transport. The paper's echo servers
// are "SIP media servers programmed to stream back any incoming video
// stream"; examples/videocall uses this signaling to set up such an echo
// session before streaming RTP.

// SIPVersion is the protocol version string.
const SIPVersion = "SIP/2.0"

// ErrSIPMalformed reports an unparsable SIP message.
var ErrSIPMalformed = errors.New("media: malformed SIP message")

// SIPMessage is either a request (Method set) or a response (Status
// set).
type SIPMessage struct {
	// Request fields.
	Method string // INVITE, ACK, BYE
	URI    string
	// Response fields.
	Status int
	Reason string

	Headers textproto.MIMEHeader
	Body    []byte
}

// IsRequest reports whether the message is a request.
func (m *SIPMessage) IsRequest() bool { return m.Method != "" }

// CallID returns the Call-ID header.
func (m *SIPMessage) CallID() string { return m.Headers.Get("Call-Id") }

// WriteSIP serializes a message to w.
func WriteSIP(w io.Writer, m *SIPMessage) error {
	var b strings.Builder
	if m.IsRequest() {
		fmt.Fprintf(&b, "%s %s %s\r\n", m.Method, m.URI, SIPVersion)
	} else {
		reason := m.Reason
		if reason == "" {
			reason = "OK"
		}
		fmt.Fprintf(&b, "%s %d %s\r\n", SIPVersion, m.Status, reason)
	}
	for key, vals := range m.Headers {
		for _, v := range vals {
			fmt.Fprintf(&b, "%s: %s\r\n", key, v)
		}
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(m.Body))
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	if len(m.Body) > 0 {
		if _, err := w.Write(m.Body); err != nil {
			return err
		}
	}
	return nil
}

// ReadSIP parses one message from r.
func ReadSIP(r *bufio.Reader) (*SIPMessage, error) {
	tp := textproto.NewReader(r)
	line, err := tp.ReadLine()
	if err != nil {
		return nil, err
	}
	m := &SIPMessage{}
	switch {
	case strings.HasPrefix(line, SIPVersion+" "):
		rest := strings.TrimPrefix(line, SIPVersion+" ")
		parts := strings.SplitN(rest, " ", 2)
		code, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("%w: status line %q", ErrSIPMalformed, line)
		}
		m.Status = code
		if len(parts) == 2 {
			m.Reason = parts[1]
		}
	default:
		parts := strings.Split(line, " ")
		if len(parts) != 3 || parts[2] != SIPVersion {
			return nil, fmt.Errorf("%w: request line %q", ErrSIPMalformed, line)
		}
		m.Method, m.URI = parts[0], parts[1]
	}
	hdr, err := tp.ReadMIMEHeader()
	if err != nil {
		return nil, fmt.Errorf("%w: headers: %v", ErrSIPMalformed, err)
	}
	m.Headers = hdr
	if cl := hdr.Get("Content-Length"); cl != "" {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 || n > 1<<20 {
			return nil, fmt.Errorf("%w: content length %q", ErrSIPMalformed, cl)
		}
		m.Body = make([]byte, n)
		if _, err := io.ReadFull(r, m.Body); err != nil {
			return nil, fmt.Errorf("%w: body: %v", ErrSIPMalformed, err)
		}
	}
	// Remove Content-Length so round-trips compare cleanly; WriteSIP
	// regenerates it.
	delete(m.Headers, "Content-Length")
	return m, nil
}

// EchoServer is a SIP-lite echo media server: it accepts INVITEs and
// acknowledges BYEs. Media echo itself happens wherever the caller
// pointed the media session (the examples echo RTP over UDP).
type EchoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

// NewEchoServer starts a server listening on addr (e.g. "127.0.0.1:0").
func NewEchoServer(addr string) (*EchoServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &EchoServer{ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *EchoServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *EchoServer) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *EchoServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

func (s *EchoServer) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		msg, err := ReadSIP(r)
		if err != nil {
			return
		}
		if !msg.IsRequest() {
			continue
		}
		resp := &SIPMessage{Status: 200, Reason: "OK", Headers: textproto.MIMEHeader{}}
		if cid := msg.CallID(); cid != "" {
			resp.Headers.Set("Call-Id", cid)
		}
		if cseq := msg.Headers.Get("Cseq"); cseq != "" {
			resp.Headers.Set("Cseq", cseq)
		}
		switch msg.Method {
		case "INVITE":
			resp.Body = []byte("v=0\r\nm=video 0 RTP/AVP 96\r\na=echo\r\n")
		case "BYE":
			// acknowledged with the bare 200
		case "ACK":
			continue // ACK gets no response
		default:
			resp.Status, resp.Reason = 501, "Not Implemented"
		}
		if err := WriteSIP(conn, resp); err != nil {
			return
		}
	}
}

// SIPClient runs the caller side of SIP-lite over one connection.
type SIPClient struct {
	conn net.Conn
	r    *bufio.Reader
	cseq int
}

// DialSIP connects to a SIP-lite server.
func DialSIP(addr string) (*SIPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &SIPClient{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close releases the connection.
func (c *SIPClient) Close() error { return c.conn.Close() }

func (c *SIPClient) request(method, uri, callID string) (*SIPMessage, error) {
	c.cseq++
	req := &SIPMessage{
		Method: method,
		URI:    uri,
		Headers: textproto.MIMEHeader{
			"Call-Id": {callID},
			"Cseq":    {fmt.Sprintf("%d %s", c.cseq, method)},
		},
	}
	if err := WriteSIP(c.conn, req); err != nil {
		return nil, err
	}
	resp, err := ReadSIP(c.r)
	if err != nil {
		return nil, err
	}
	if resp.IsRequest() {
		return nil, fmt.Errorf("%w: expected response, got request %s", ErrSIPMalformed, resp.Method)
	}
	return resp, nil
}

// Invite starts an echo session and returns the negotiated SDP body.
func (c *SIPClient) Invite(uri, callID string) ([]byte, error) {
	resp, err := c.request("INVITE", uri, callID)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("media: INVITE rejected: %d %s", resp.Status, resp.Reason)
	}
	return resp.Body, nil
}

// Bye ends the session.
func (c *SIPClient) Bye(uri, callID string) error {
	resp, err := c.request("BYE", uri, callID)
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return fmt.Errorf("media: BYE rejected: %d %s", resp.Status, resp.Reason)
	}
	return nil
}
