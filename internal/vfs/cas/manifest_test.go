package cas

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hacfs/internal/vfs"
)

func sampleManifest() *Manifest {
	ts := func(n int64) time.Time { return time.Unix(n, n*17) }
	return &Manifest{Entries: []Entry{
		{Path: "/", Type: vfs.TypeDir, ModTime: ts(1)},
		{Path: "/docs", Type: vfs.TypeDir, ModTime: ts(2)},
		{Path: "/docs/a.txt", Type: vfs.TypeFile, Hash: Sum([]byte("alpha")), Size: 5, ModTime: ts(3)},
		{Path: "/docs/ln", Type: vfs.TypeSymlink, Target: "/docs/a.txt", ModTime: ts(4)},
		{Path: "/empty", Type: vfs.TypeFile, Hash: Sum(nil), Size: 0, ModTime: ts(5)},
	}}
}

func TestManifestCodecRoundTrip(t *testing.T) {
	m := sampleManifest()
	enc := m.EncodeBinary()
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(m.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(m.Entries))
	}
	for i, e := range m.Entries {
		g := got.Entries[i]
		if g.Path != e.Path || g.Type != e.Type || g.Hash != e.Hash ||
			g.Size != e.Size || g.Target != e.Target || !g.ModTime.Equal(e.ModTime) {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, e)
		}
	}
}

func TestManifestCodecRejectsDamage(t *testing.T) {
	enc := sampleManifest().EncodeBinary()
	// Truncations at every boundary.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeManifest(enc[:n]); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("truncation at %d accepted (err=%v)", n, err)
		}
	}
	// Trailing garbage.
	if _, err := DecodeManifest(append(bytes.Clone(enc), 0)); !errors.Is(err, ErrBadManifest) {
		t.Fatal("trailing byte accepted")
	}
	// Wrong magic / version.
	bad := bytes.Clone(enc)
	bad[0] = 'X'
	if _, err := DecodeManifest(bad); !errors.Is(err, ErrBadManifest) {
		t.Fatal("bad magic accepted")
	}
	bad = bytes.Clone(enc)
	bad[4] = 99
	if _, err := DecodeManifest(bad); !errors.Is(err, ErrBadManifest) {
		t.Fatal("bad version accepted")
	}
	// Huge declared count must be rejected before allocating.
	bad = bytes.Clone(enc)
	bad[5], bad[6], bad[7], bad[8] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeManifest(bad); !errors.Is(err, ErrBadManifest) {
		t.Fatal("absurd count accepted")
	}
}

func TestManifestHelpers(t *testing.T) {
	m := sampleManifest()
	if hs := m.MissingFrom(NewStore()); len(hs) != 2 {
		t.Fatalf("distinct hashes = %d, want 2", len(hs))
	}
	if lb := m.LogicalBytes(); lb != 5 {
		t.Fatalf("logical bytes = %d", lb)
	}
	if e, ok := m.Lookup("/docs/a.txt"); !ok || e.Size != 5 {
		t.Fatalf("lookup: %+v %v", e, ok)
	}
	if _, ok := m.Lookup("/nope"); ok {
		t.Fatal("lookup of missing path succeeded")
	}
	store := NewStore()
	store.Put([]byte("alpha"))
	missing := m.MissingFrom(store)
	if len(missing) != 1 || missing[0] != Sum(nil) {
		t.Fatalf("missing = %v", missing)
	}
}

// FuzzManifestCodec feeds arbitrary bytes to the decoder (must never
// panic or over-allocate) and round-trips any input that decodes.
func FuzzManifestCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(sampleManifest().EncodeBinary())
	f.Add([]byte("HACM\x01\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re := m.EncodeBinary()
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs from accepted input")
		}
	})
}
