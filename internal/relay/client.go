package relay

import (
	"fmt"
	"net"
	"time"
)

// Client is a minimal STUN/TURN auth client.
type Client struct {
	conn net.Conn
}

// Dial connects (UDP) to a relay server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req *STUNMessage, timeout time.Duration) (*STUNMessage, error) {
	out, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(out); err != nil {
		return nil, err
	}
	buf := make([]byte, maxSTUNMsgSize)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := UnmarshalSTUN(buf[:n])
		if err != nil {
			continue
		}
		if resp.Transaction != req.Transaction {
			continue // stale response
		}
		return resp, nil
	}
}

// Allocate authenticates and requests a relay allocation; it returns
// the realm identifying the serving PoP.
func (c *Client) Allocate(username string, timeout time.Duration) (string, error) {
	req := &STUNMessage{
		Type:        TypeAllocateRequest,
		Transaction: NewTransaction(),
		Attrs:       []STUNAttr{{Type: AttrUsername, Value: []byte(username)}},
	}
	resp, err := c.roundTrip(req, timeout)
	if err != nil {
		return "", err
	}
	switch resp.Type {
	case TypeAllocateResponse:
		realm, _ := resp.Attr(AttrRealm)
		return string(realm), nil
	case TypeAllocateError:
		return "", fmt.Errorf("relay: allocation rejected")
	default:
		return "", fmt.Errorf("relay: unexpected response type %#x", resp.Type)
	}
}
