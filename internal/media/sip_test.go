package media

import (
	"bufio"
	"bytes"
	"net/textproto"
	"strings"
	"testing"
)

func TestSIPRoundTripRequest(t *testing.T) {
	in := &SIPMessage{
		Method: "INVITE",
		URI:    "sip:echo@example.net",
		Headers: textproto.MIMEHeader{
			"Call-Id": {"abc123"},
			"Cseq":    {"1 INVITE"},
		},
		Body: []byte("v=0\r\n"),
	}
	var buf bytes.Buffer
	if err := WriteSIP(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSIP(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsRequest() || out.Method != "INVITE" || out.URI != in.URI {
		t.Errorf("got %+v", out)
	}
	if out.CallID() != "abc123" {
		t.Errorf("call id = %q", out.CallID())
	}
	if string(out.Body) != "v=0\r\n" {
		t.Errorf("body = %q", out.Body)
	}
}

func TestSIPRoundTripResponse(t *testing.T) {
	in := &SIPMessage{Status: 200, Reason: "OK", Headers: textproto.MIMEHeader{"Call-Id": {"x"}}}
	var buf bytes.Buffer
	if err := WriteSIP(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSIP(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.IsRequest() || out.Status != 200 || out.Reason != "OK" {
		t.Errorf("got %+v", out)
	}
}

func TestSIPRejectsGarbage(t *testing.T) {
	cases := []string{
		"NOT A SIP LINE\r\n\r\n",
		"SIP/2.0 abc OK\r\n\r\n",
		"INVITE sip:x HTTP/1.1\r\n\r\n",
		"INVITE sip:x SIP/2.0\r\nContent-Length: -5\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ReadSIP(bufio.NewReader(strings.NewReader(c))); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
}

func TestEchoServerSession(t *testing.T) {
	srv, err := NewEchoServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialSIP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sdp, err := c.Invite("sip:echo@vns", "call-1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sdp), "a=echo") {
		t.Errorf("sdp = %q", sdp)
	}
	if err := c.Bye("sip:echo@vns", "call-1"); err != nil {
		t.Fatal(err)
	}
}

func TestEchoServerMultipleClients(t *testing.T) {
	srv, err := NewEchoServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 5
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			c, err := DialSIP(srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			callID := strings.Repeat("x", i+1)
			if _, err := c.Invite("sip:echo@vns", callID); err != nil {
				done <- err
				return
			}
			done <- c.Bye("sip:echo@vns", callID)
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEchoServerUnknownMethod(t *testing.T) {
	srv, err := NewEchoServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialSIP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.request("OPTIONS", "sip:echo@vns", "call-9")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 501 {
		t.Errorf("status = %d, want 501", resp.Status)
	}
}
