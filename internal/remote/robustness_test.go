package remote

import (
	"net"
	"strings"
	"testing"
	"time"

	"hacfs/internal/wire"
)

// rawConn opens a raw TCP connection to the test server and returns it
// with the well-behaved client that proves the server is still up.
func rawConn(t *testing.T) (net.Conn, *BinClient) {
	t.Helper()
	c, _ := startServer(t)
	if err := c.Ping(); err != nil { // ensures the server is up
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", c.c.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, c
}

// hello performs the client half of the hello exchange on a raw
// connection.
func hello(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := wire.WriteHello(conn, wire.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
}

func TestServerDropsGarbagePreamble(t *testing.T) {
	conn, c := rawConn(t)
	if _, err := conn.Write([]byte("\x00\xff\x13garbage\r\nPING\n")); err != nil {
		t.Fatal(err)
	}
	// A connection that does not open with the hello is closed, with no
	// reply of any kind.
	if n, err := conn.Read(make([]byte, 16)); err == nil {
		t.Fatalf("server answered %d bytes to a garbage preamble", n)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after garbage: %v", err)
	}
}

func TestServerRejectsMalformedPayload(t *testing.T) {
	conn, _ := rawConn(t)
	hello(t, conn)
	for i, bad := range []wire.Frame{
		{Type: fSearch, Payload: []byte{0x80}},                                        // truncated cursor varint
		{Type: fSearch, Payload: append(appendSearchReq(nil, "q", "", 0, 1, 1), 0x7)}, // trailing byte
		{Type: fFetch, Payload: []byte{0x20, 'x'}},                                    // path shorter than its length prefix
		{Type: fFetch, Payload: wire.AppendUvarint(nil, maxField+1)},                  // path over its bound
		{Type: 99}, // unknown frame type
	} {
		bad.ID = uint64(i + 1)
		if err := wire.WriteFrame(conn, bad); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(conn, maxFramePayload)
		if err != nil {
			t.Fatalf("server dropped the connection on malformed frame %d: %v", i, err)
		}
		if f.Type != wire.TypeErr || f.ID != bad.ID || !f.Final() {
			t.Fatalf("reply to malformed frame %d = type %d id %d final=%v, want a final error frame", i, f.Type, f.ID, f.Final())
		}
	}
	// The connection keeps working after the errors.
	if err := wire.WriteFrame(conn, wire.Frame{Type: fPing, ID: 100}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(conn, maxFramePayload); err != nil || f.Type != fPong || f.ID != 100 {
		t.Fatalf("ping after malformed frames = %+v, %v", f, err)
	}
}

func TestServerBoundsFrameLength(t *testing.T) {
	conn, c := rawConn(t)
	hello(t, conn)
	// A frame declaring more than the payload budget must be refused
	// from its header alone: the server closes the connection without
	// waiting for — or allocating — the declared bytes.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, fSearch, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 16)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("over-budget frame: read = %v, want the connection closed", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after over-budget frame: %v", err)
	}
}
