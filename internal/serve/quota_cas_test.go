package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// addCASTenant registers a HAC volume over a cas substrate sharing the
// given store.
func addCASTenant(t *testing.T, h *Host, name string, store *cas.BlobStore, q Quota) vfs.FileSystem {
	t.Helper()
	hfs := hac.New(cas.New(store), hac.Options{})
	if err := h.AddTenant(name, hfs, q, ""); err != nil {
		t.Fatal(err)
	}
	fsys, err := h.Volume(name)
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func usageOf(t *testing.T, h *Host, name string) (int64, int64) {
	t.Helper()
	b, d, err := h.Usage(name)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

// Two tenants of one shared store writing identical content pay for it
// once: the writer of the first copy is charged, the duplicate is free,
// and the sum of accounted usage tracks the store's unique bytes.
func TestCASQuotaDedupAcrossTenants(t *testing.T) {
	h, _ := newTestHost(t, 2)
	shared := cas.NewStore()
	a := addCASTenant(t, h, "alice", shared, Quota{})
	b := addCASTenant(t, h, "bob", shared, Quota{})

	content := bytes.Repeat([]byte("shared corpus "), 300)
	if err := a.WriteFile("/doc.txt", content); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile("/copy.txt", content); err != nil {
		t.Fatal(err)
	}
	ab, _ := usageOf(t, h, "alice")
	bb, _ := usageOf(t, h, "bob")
	if ab != int64(len(content)) {
		t.Fatalf("alice charged %d, want %d", ab, len(content))
	}
	if bb != 0 {
		t.Fatalf("bob charged %d for duplicate content, want 0", bb)
	}
	if got := shared.UniqueBytes(); ab+bb != got {
		t.Fatalf("tenant usage sums to %d, store holds %d unique bytes", ab+bb, got)
	}

	// Distinct content is charged in full to its writer.
	other := bytes.Repeat([]byte("bob's own "), 100)
	if err := b.WriteFile("/own.txt", other); err != nil {
		t.Fatal(err)
	}
	bb, bd := usageOf(t, h, "bob")
	if bb != int64(len(other)) {
		t.Fatalf("bob charged %d, want %d", bb, len(other))
	}
	if bd != 2 {
		t.Fatalf("bob docs = %d, want 2", bd)
	}
}

// The conservation invariant: through writes, overwrites, and removals
// of shared content, the tenants' accounted bytes always sum to the
// store's unique bytes.
func TestCASQuotaConservation(t *testing.T) {
	h, _ := newTestHost(t, 2)
	shared := cas.NewStore()
	a := addCASTenant(t, h, "alice", shared, Quota{})
	b := addCASTenant(t, h, "bob", shared, Quota{})

	check := func(step string) {
		t.Helper()
		ab, _ := usageOf(t, h, "alice")
		bb, _ := usageOf(t, h, "bob")
		if got := shared.UniqueBytes(); ab+bb != got {
			t.Fatalf("%s: usage sums to %d, store holds %d", step, ab+bb, got)
		}
	}
	x := bytes.Repeat([]byte("x"), 2048)
	y := bytes.Repeat([]byte("y"), 512)
	if err := a.WriteFile("/x.bin", x); err != nil {
		t.Fatal(err)
	}
	check("alice writes x")
	if err := b.WriteFile("/x.bin", x); err != nil {
		t.Fatal(err)
	}
	check("bob duplicates x")
	if err := a.WriteFile("/x.bin", y); err != nil {
		t.Fatal(err)
	}
	check("alice overwrites with y")
	if err := b.Remove("/x.bin"); err != nil {
		t.Fatal(err)
	}
	check("bob removes the last x")
	if err := a.Remove("/x.bin"); err != nil {
		t.Fatal(err)
	}
	check("alice removes y")
}

// A duplicate of content the store already holds fits in a quota sized
// for a single copy; genuinely new content over quota still rejects.
func TestCASQuotaAdmitsDedupHit(t *testing.T) {
	h, _ := newTestHost(t, 2)
	shared := cas.NewStore()
	content := bytes.Repeat([]byte("z"), 4096)
	a := addCASTenant(t, h, "alice", shared, Quota{MaxBytes: int64(len(content))})
	b := addCASTenant(t, h, "bob", shared, Quota{MaxBytes: 64})

	if err := a.WriteFile("/z.bin", content); err != nil {
		t.Fatal(err)
	}
	// Bob's quota could never hold 4096 fresh bytes, but the store
	// already has them.
	if err := b.WriteFile("/mirror.bin", content); err != nil {
		t.Fatalf("dedup hit rejected: %v", err)
	}
	if err := b.WriteFile("/new.bin", bytes.Repeat([]byte("w"), 65)); err == nil {
		t.Fatal("unique content over quota accepted")
	} else if !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}

// Handle writes are charged when Close seals the buffer into the
// store — and sealing duplicate content costs nothing.
func TestCASQuotaHandleWritesChargeAtSeal(t *testing.T) {
	h, _ := newTestHost(t, 2)
	shared := cas.NewStore()
	a := addCASTenant(t, h, "alice", shared, Quota{})

	content := bytes.Repeat([]byte("handle"), 200)
	for i, path := range []string{"/one.bin", "/two.bin"} {
		f, err := a.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(content); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ab, _ := usageOf(t, h, "alice")
		if ab != int64(len(content)) {
			t.Fatalf("after file %d: charged %d, want %d", i+1, ab, len(content))
		}
	}
}

// A mirroring peer's manifest request and a checkpoint seal an open
// handle's buffer into the store before the handle's Close does. The
// seal is charged where it happens, so once the handle closes the
// tenant's usage is the store's unique bytes.
func TestCASQuotaSealBeforeClose(t *testing.T) {
	for _, seal := range []struct {
		name string
		run  func(h *Host, v vfs.FileSystem) error
	}{
		{"manifest", func(h *Host, v vfs.FileSystem) error {
			_, err := v.(interface{ CASManifest() (*cas.Manifest, error) }).CASManifest()
			return err
		}},
		{"checkpoint", func(h *Host, v vfs.FileSystem) error { return h.Checkpoint() }},
	} {
		t.Run(seal.name, func(t *testing.T) {
			h, _ := newTestHost(t, 2)
			store := cas.NewStore()
			hfs := hac.New(cas.New(store), hac.Options{})
			if err := h.AddTenant("a", hfs, Quota{}, t.TempDir()+"/a.hac"); err != nil {
				t.Fatal(err)
			}
			v, err := h.Volume("a")
			if err != nil {
				t.Fatal(err)
			}
			f, err := v.Create("/doc.bin")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(bytes.Repeat([]byte("buffered "), 100)); err != nil {
				t.Fatal(err)
			}
			if err := seal.run(h, v); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if used, _ := usageOf(t, h, "a"); used != store.UniqueBytes() {
				t.Fatalf("usage %d after Close, store holds %d unique bytes", used, store.UniqueBytes())
			}
		})
	}
}

// A checkpoint holds the shared store's accounting section for its seal
// only: while tenant a's save is under way, tenant b's measured write
// completes, and a is still charged what the seal added.
func TestCheckpointHoldsTheStoreOnlyForTheSeal(t *testing.T) {
	h, _ := newTestHost(t, 2)
	store := cas.NewStore()
	va := addCASTenant(t, h, "a", store, Quota{})
	vb := addCASTenant(t, h, "b", store, Quota{})
	content := bytes.Repeat([]byte("buffered "), 100)
	f, err := va.Create("/doc.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	inSave, release := make(chan struct{}), make(chan struct{})
	saved := make(chan error, 1)
	go func() {
		saved <- h.tenants["a"].qfs.checkpoint(func() error {
			close(inSave)
			<-release
			return nil
		})
	}()
	<-inSave
	wrote := make(chan error, 1)
	go func() { wrote <- vb.WriteFile("/b.txt", []byte("tenant b")) }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("tenant b's write waited for tenant a's save")
	}
	close(release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if used, _ := usageOf(t, h, "a"); used != int64(len(content)) {
		t.Fatalf("tenant a charged %d bytes, its sealed file holds %d", used, len(content))
	}
}

// AddTenant recounts a pre-populated content-addressed volume by its
// self-deduplicated footprint, and the store's gauges join the
// observer's registry.
func TestCASQuotaRecountAndMetrics(t *testing.T) {
	h, o := newTestHost(t, 2)
	store := cas.NewStore()
	sub := cas.New(store)
	content := bytes.Repeat([]byte("seed"), 256)
	for _, p := range []string{"/a.bin", "/b.bin", "/c.bin"} {
		if err := sub.WriteFile(p, content); err != nil {
			t.Fatal(err)
		}
	}
	hfs := hac.New(sub, hac.Options{})
	if err := h.AddTenant("seeded", hfs, Quota{}, ""); err != nil {
		t.Fatal(err)
	}
	bytes_, docs := usageOf(t, h, "seeded")
	if bytes_ != int64(len(content)) {
		t.Fatalf("recount bytes = %d, want %d (three copies, one blob)", bytes_, len(content))
	}
	if docs != 3 {
		t.Fatalf("recount docs = %d, want 3", docs)
	}
	snap := o.Registry().Snapshot()
	if got := snap["cas_unique_bytes"]; got != float64(len(content)) {
		t.Fatalf("cas_unique_bytes = %v, want %d", got, len(content))
	}
	if got := snap["cas_dedup_ratio"]; got < 2.9 {
		t.Fatalf("cas_dedup_ratio = %v, want ~3", got)
	}
}
