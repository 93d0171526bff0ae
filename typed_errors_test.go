package hacfs_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"testing"

	"hacfs/internal/remote"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
)

// Every sentinel the wire error table carries (wire's own
// TestErrorCodec walks the table itself; this list is what the services
// must deliver end to end).
var wireSentinels = []error{
	vfs.ErrShardUnavailable, vfs.ErrShuttingDown, vfs.ErrBackpressure, vfs.ErrQuotaExceeded,
	vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir, vfs.ErrNotEmpty, vfs.ErrInvalid,
	vfs.ErrLoop, vfs.ErrCrossMount, vfs.ErrClosed, vfs.ErrReadOnly, vfs.ErrWriteOnly, vfs.ErrBusy,
	vfs.ErrUnsupported,
}

// errorCases is each sentinel bare, wrapped with detail, and inside a
// *vfs.PathError. The fakes below fail with errorCases[i] when asked
// for "i", so one server per service answers every case.
var errorCases = func() []error {
	var cases []error
	for _, s := range wireSentinels {
		cases = append(cases, s,
			fmt.Errorf("replica 2 of 3: %w", s),
			&vfs.PathError{Op: "fetch", Path: "/some dir/f", Err: s})
	}
	return cases
}()

func caseOf(arg string) error {
	i, err := strconv.Atoi(arg)
	if err != nil || i < 0 || i >= len(errorCases) {
		return fmt.Errorf("no error case %q", arg)
	}
	return errorCases[i]
}

// failBackend is a remote.Backend whose every call fails typed.
type failBackend struct{}

func (failBackend) SearchPageUnder(_ context.Context, q, _ string, _ uint64, _ int) ([]string, uint64, uint64, error) {
	return nil, 0, 0, caseOf(q)
}
func (failBackend) Fetch(path string) ([]byte, error) { return nil, caseOf(path) }

// failFS is a served file system whose ReadFile fails typed; the test
// calls nothing else.
type failFS struct{ vfs.FileSystem }

func (failFS) ReadFile(path string) ([]byte, error) { return nil, caseOf(path[1:]) }

// TestTypedErrorsRoundTripEveryService sends every entry of the unified
// sentinel table — bare, detailed, and in a *vfs.PathError — through a
// remote server and a remotefs server (which also serves the catalog),
// and checks the client sees the same sentinel, Op and Path.
func TestTypedErrorsRoundTripEveryService(t *testing.T) {
	listen := func(t *testing.T, srv interface {
		Serve(net.Listener) error
		Close()
	}) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(srv.Close)
		return l.Addr().String()
	}

	cba := remote.DialBin("lib", listen(t, remote.NewServer(failBackend{}, nil)))
	defer cba.Close()
	rfs := remotefs.DialMux(listen(t, remotefs.NewServer(failFS{}, nil)))
	defer rfs.Close()

	services := []struct {
		name string
		call func(arg string) error
	}{
		{"remote.Fetch", func(arg string) error { _, err := cba.Fetch(arg); return err }},
		{"remote.Search", func(arg string) error { _, err := cba.Search(arg); return err }},
		{"remotefs.ReadFile", func(arg string) error { _, err := rfs.ReadFile("/" + arg); return err }},
	}
	for _, svc := range services {
		for i, want := range errorCases {
			got := svc.call(strconv.Itoa(i))
			sentinel := wireSentinels[i/3]
			if !errors.Is(got, sentinel) {
				t.Errorf("%s: case %d (%v) arrived as %v, lost %v", svc.name, i, want, got, sentinel)
				continue
			}
			for _, other := range wireSentinels {
				if other != sentinel && errors.Is(got, other) {
					t.Errorf("%s: case %d (%v) arrived also matching %v", svc.name, i, want, other)
				}
			}
			var wantPE, gotPE *vfs.PathError
			if errors.As(want, &wantPE) {
				if !errors.As(got, &gotPE) || gotPE.Op != wantPE.Op || gotPE.Path != wantPE.Path {
					t.Errorf("%s: case %d: PathError{%q %q} arrived as %#v", svc.name, i, wantPE.Op, wantPE.Path, got)
				}
			} else if errors.As(got, &gotPE) {
				t.Errorf("%s: case %d (%v) grew a PathError: %#v", svc.name, i, want, got)
			}
		}
	}
}
