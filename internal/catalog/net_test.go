package catalog

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

func startCatalogServer(t *testing.T) *Client {
	t.Helper()
	srv := NewServer(New(), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	c := Dial(l.Addr().String())
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCatalogOverNetwork(t *testing.T) {
	c := startCatalogServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	alice := userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint"})
	bob := userVolume(t, sharedFiles(), map[string]string{"/bio": "fingerprint OR iris"})

	if n, err := c.Publish("alice", alice); err != nil || n != 1 {
		t.Fatalf("Publish alice = %d, %v", n, err)
	}
	if n, err := c.Publish("bob", bob); err != nil || n != 1 {
		t.Fatalf("Publish bob = %d, %v", n, err)
	}

	hits, err := c.Search("fingerprint")
	if err != nil || len(hits) != 2 {
		t.Fatalf("Search = %+v, %v", hits, err)
	}
	matches, err := c.SimilarTo("alice", "/fp")
	if err != nil || len(matches) != 1 || matches[0].Entry.User != "bob" {
		t.Fatalf("SimilarTo = %+v, %v", matches, err)
	}
	entries, err := c.Entries()
	if err != nil || len(entries) != 2 {
		t.Fatalf("Entries = %+v, %v", entries, err)
	}
}

func TestCatalogServerRejectsSpoofedUser(t *testing.T) {
	c := startCatalogServer(t)
	_, err := c.publish("mallory", []Entry{{User: "alice", Path: "/stolen", Query: "x"}})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("spoofed publish err = %v", err)
	}
	// The rejection travels typed, not as a bare string.
	var pe *vfs.PathError
	if !errors.As(err, &pe) || pe.Op != "publish" || pe.Path != "alice:/stolen" || !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("spoofed publish err = %#v, want PathError{publish alice:/stolen ErrInvalid}", err)
	}
	if entries, err := c.Entries(); err != nil || len(entries) != 0 {
		t.Fatalf("catalog after spoofed publish = %v, %v", entries, err)
	}
}

// TestCatalogServerClosesHostileConnections: a frame declaring more
// than the payload budget and a preamble that is not the hello each get
// that connection closed — nothing is decoded from either — while the
// next client is still served.
func TestCatalogServerClosesHostileConnections(t *testing.T) {
	c := startCatalogServer(t)
	dial := func() net.Conn {
		conn, err := net.DialTimeout("tcp", c.c.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	big := dial()
	if err := wire.WriteHello(big, wire.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(big); err != nil {
		t.Fatal(err)
	}
	// Header only: length maxFrame+1 beyond the fixed header, type
	// cPublish. The server must hang up on the declared length alone.
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame+1+10)
	hdr = append(hdr, cPublish, 0, 0, 0, 0, 0, 0, 0, 0, 1)
	if _, err := big.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection open after an over-budget frame")
	}

	gob := dial()
	gob.Write([]byte("\x2b\xff\x81\x03\x01\x01\x0acatRequest")) // what the old gob client opened with
	if _, err := gob.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection open after a non-hello preamble")
	}

	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after hostile connections: %v", err)
	}
}

func TestCatalogServerErrors(t *testing.T) {
	c := startCatalogServer(t)
	if _, err := c.Search("(((bad"); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := c.SimilarTo("nobody", "/x"); err == nil {
		t.Fatal("unknown entry accepted")
	}
	// Connection survives server-side errors.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}
