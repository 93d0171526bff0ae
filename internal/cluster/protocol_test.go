package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/remote"
	"hacfs/internal/vfs"
)

// TestTypedErrorsCrossBothProtocols drives a real remote.Server over a
// coordinator whose only shard is unreachable, and asserts that the
// wire delivers the failure to the client as a *vfs.PathError wrapping
// vfs.ErrShardUnavailable, never as a raw transport error or anonymous
// string. (The name dates from when two protocols carried it.)
func TestTypedErrorsCrossBothProtocols(t *testing.T) {
	// An address that refuses connections: grab a port, then free it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	m, err := ParseMap("shard 0 " + deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	coord := New(m, Options{
		Timeout:  200 * time.Millisecond,
		Cooldown: time.Millisecond,
		Observer: obs.NewObserver(),
	})
	defer coord.Close()

	srv := remote.NewServer(coord, nil)
	srv.SetObserver(obs.NewObserver())
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	defer srv.Close()
	addr := sl.Addr().String()

	check := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("search against dead shard succeeded")
		}
		if !errors.Is(err, vfs.ErrShardUnavailable) {
			t.Fatalf("err = %v, want wrapping ErrShardUnavailable", err)
		}
		var pe *vfs.PathError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %#v, want *vfs.PathError", err)
		}
		if pe.Path != "shard/0" {
			t.Fatalf("PathError.Path = %q, want shard/0", pe.Path)
		}
	}

	cl := remote.DialBin("test", addr)
	defer cl.Close()
	_, err = cl.Search("anything")
	check(t, err)
	_, _, _, err = cl.SearchPageUnder(context.Background(), "anything", "/", 0, 10)
	check(t, err)
}

// TestServedSearchRecordsShardSeconds: a search served the way a client
// reaches a cluster — through remote.NewServer(coord) — records every
// shard fetch in cluster_shard_seconds{shard} and the opening fan-out in
// cluster_straggler_seconds.
func TestServedSearchRecordsShardSeconds(t *testing.T) {
	obsv := obs.NewObserver()
	coord := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(1, "/s0/a.txt", "/s0/b.txt", "/s0/c.txt")},
		1: {newFake(1, "/s1/x.txt")},
	}, Options{PageSize: 2, Observer: obsv})
	srv := remote.NewServer(coord, nil)
	srv.SetObserver(obs.NewObserver())
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	defer srv.Close()
	cl := remote.DialBin("test", sl.Addr().String())
	defer cl.Close()
	got, err := cl.SearchUnderContext(context.Background(), "q", "/")
	if err != nil || len(got) != 4 {
		t.Fatalf("served search = %v, %v", got, err)
	}
	snap := obsv.Registry().Snapshot()
	for key, atLeast := range map[string]float64{
		`cluster_shard_seconds{shard="0"}_count`: 2, // the opening fetch and one refill
		`cluster_shard_seconds{shard="1"}_count`: 1,
		`cluster_straggler_seconds_count`:        1,
	} {
		if snap[key] < atLeast {
			t.Errorf("%s = %v, want >= %v", key, snap[key], atLeast)
		}
	}
}

// TestMidQueryShardLossIsTyped boots one real shard behind the
// coordinator, kills it mid-cursor, and asserts the client-visible
// failure on the next page is typed.
func TestMidQueryShardLossIsTyped(t *testing.T) {
	f := newFake(1, "/s0/a.txt", "/s0/b.txt", "/s0/c.txt", "/s0/d.txt")
	coord := fleet(t, "shard 0 a:1\nroute /s0 0", map[int][]*fakeConn{0: {f}},
		Options{PageSize: 2, Timeout: 100 * time.Millisecond, Cooldown: time.Millisecond})

	srv := remote.NewServer(coord, nil)
	srv.SetObserver(obs.NewObserver())
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	defer srv.Close()

	search := func(after uint64) ([]string, uint64, error) {
		cl := remote.DialBin("test", sl.Addr().String())
		defer cl.Close()
		paths, next, _, err := cl.SearchPageUnder(context.Background(), "q", "/s0", after, 2)
		return paths, next, err
	}

	paths, next, err := search(0)
	if err != nil || len(paths) != 2 || next == 0 {
		t.Fatalf("first page: %v next=%d err=%v", paths, next, err)
	}
	f.failDial.Store(true) // the shard dies mid-cursor
	_, _, err = search(next)
	if !errors.Is(err, vfs.ErrShardUnavailable) {
		t.Fatalf("mid-query loss err = %v, want ErrShardUnavailable", err)
	}
	var pe *vfs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("mid-query loss err = %#v, want *vfs.PathError", err)
	}
}
