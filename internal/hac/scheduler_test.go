package hac

import (
	"errors"
	"testing"
	"time"

	"hacfs/internal/index"
	"hacfs/internal/vfs"
)

func TestSchedulerPeriodicReindex(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	before := len(targetsOf(t, fs, "/sel"))

	s := fs.StartAutoReindex("/", 5*time.Millisecond)
	defer s.Stop()

	// New matching file appears without any manual Reindex call.
	if err := fs.WriteFile("/docs/apple-auto.txt", []byte("apple appears automatically")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(targetsOf(t, fs, "/sel")) == before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never picked up the new file")
		}
		time.Sleep(2 * time.Millisecond)
	}
	runs, err := s.Runs()
	if err != nil || runs == 0 {
		t.Fatalf("Runs = %d, %v", runs, err)
	}
}

func TestSchedulerTriggerNow(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	s := fs.StartAutoReindex("/", time.Hour) // ticker effectively never fires
	defer s.Stop()

	if err := fs.WriteFile("/docs/apple-now.txt", []byte("apple right now")); err != nil {
		t.Fatal(err)
	}
	if err := s.TriggerNow(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, target := range targetsOf(t, fs, "/sel") {
		if target == "/docs/apple-now.txt" {
			found = true
		}
	}
	if !found {
		t.Fatal("TriggerNow did not settle the new file")
	}
}

func TestSchedulerStopIdempotent(t *testing.T) {
	fs := newTestFS(t)
	s := fs.StartAutoReindex("/", time.Hour)
	s.Stop()
	s.Stop() // no panic
	if err := s.TriggerNow(); err != nil {
		t.Fatalf("TriggerNow after Stop = %v", err)
	}
}

func TestRegisterTransducerThroughHAC(t *testing.T) {
	// Registration is only legal on an empty store, so it happens before
	// the first Reindex (equivalently: Options.Transducers at New time).
	fs := New(vfs.New(), Options{})
	if err := fs.RegisterTransducer(".eml", index.EmailTransducer); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mail/m9.eml", []byte("from zed\n\nnothing else\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fromzed", "from:zed"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/fromzed", "/mail/m9.eml")

	// Once documents are indexed, late registration fails loudly instead
	// of silently leaving them without attribute terms.
	if err := fs.RegisterTransducer(".txt", index.PathTransducer); !errors.Is(err, index.ErrNotEmpty) {
		t.Fatalf("late RegisterTransducer err = %v, want index.ErrNotEmpty", err)
	}
}
