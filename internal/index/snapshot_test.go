package index

import (
	"fmt"
	"testing"
)

// TestSnapshotStableIDsAcrossMerge pins the central DocID contract: a
// snapshot is taken, a compaction is forced underneath it, and every ID
// issued before the merge still resolves in that snapshot — through the
// segments it pinned and, for a document the merge moved, the pinned
// slot it came from — to the same document in both directions.
func TestSnapshotStableIDsAcrossMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(4)
	const n = 24
	ids := make(map[string]DocID, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d/f%02d.txt", i)
		ix.Add(p, []byte(fmt.Sprintf("common unique%02d", i)))
		id, ok := ix.IDOf(p)
		if !ok {
			t.Fatalf("IDOf(%s) missing after Add", p)
		}
		ids[p] = id
	}
	snap := ix.Snapshot()

	// Delete a third of the documents, then compact everything.
	removed := make(map[string]bool)
	for i := 0; i < n; i += 3 {
		p := fmt.Sprintf("/d/f%02d.txt", i)
		if !ix.Remove(p) {
			t.Fatalf("Remove(%s) found nothing", p)
		}
		removed[p] = true
	}
	ix.ForceMerge()

	for p, id := range ids {
		if removed[p] {
			if got, ok := snap.PathOf(id); ok {
				t.Fatalf("%s was removed but snapshot PathOf(%#x) = %q", p, id, got)
			}
			continue
		}
		// The ID the snapshot issued maps to the path, and the path maps
		// back to the same pre-merge ID even though byPath now holds the
		// merged one.
		if sp, ok := snap.PathOf(id); !ok || sp != p {
			t.Fatalf("snapshot PathOf(%#x) = %q, %v; want %q", id, sp, ok, p)
		}
		if sid, ok := snap.IDOf(p); !ok || sid != id {
			t.Fatalf("snapshot IDOf(%s) = %#x, %v; want %#x", p, sid, ok, id)
		}
	}
}

// TestSnapshotResultSurvivesMerge evaluates against a pinned snapshot,
// lets a merge commit between the lookup and the path resolution, and
// checks the result set still resolves exactly — the multi-call query
// evaluation the snapshot exists for.
func TestSnapshotResultSurvivesMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(3)
	var want []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/x/a%02d", i)
		ix.Add(p, []byte("apple"))
		want = append(want, p)
	}
	snap := ix.Snapshot()
	res := snap.Lookup("apple")

	// The merge retires every sealed segment the result references.
	ix.ForceMerge()
	got := snap.Paths(res)
	if len(got) != len(want) {
		t.Fatalf("Paths after merge = %v, want %d docs", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Paths[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSnapshotFreezesIDSpace checks that documents added after the pin
// are invisible to the snapshot, while deletions after the pin take
// effect immediately (liveness is call-time, the ID space is not).
func TestSnapshotFreezesIDSpace(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("apple"))
	ix.Add("/b", []byte("apple"))
	snap := ix.Snapshot()

	ix.Add("/c", []byte("apple")) // post-pin: outside the frozen space
	ix.Remove("/b")               // post-pin: stops matching immediately

	if got := snap.Paths(snap.Lookup("apple")); len(got) != 1 || got[0] != "/a" {
		t.Fatalf("pinned lookup = %v, want [/a]", got)
	}
	if _, ok := snap.IDOf("/c"); ok {
		t.Fatal("snapshot resolved a document committed after the pin")
	}
	if epoch := snap.Epoch(); epoch != ix.Snapshot().Epoch() {
		t.Fatalf("epoch moved without a merge: %d vs %d", epoch, ix.Snapshot().Epoch())
	}
}

// TestSnapshotIDOfAfterTwoMerges: each merge after the pin moves the
// pinned documents again, and the snapshot still resolves them after
// the second, when the segment the first merge made is neither pinned
// nor resident.
func TestSnapshotIDOfAfterTwoMerges(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("apple"))
	ix.Add("/b", []byte("apple"))
	ix.ForceMerge() // seals /a and /b: nothing to fold yet
	ix.Add("/c", []byte("apple"))
	snap := ix.Snapshot()
	pinned := make(map[string]DocID)
	for _, p := range []string{"/a", "/b", "/c"} {
		id, ok := snap.IDOf(p)
		if !ok {
			t.Fatalf("snapshot IDOf(%s) missing at the pin", p)
		}
		pinned[p] = id
	}
	ix.ForceMerge()
	ix.Add("/d", []byte("apple"))
	ix.ForceMerge()

	for p, want := range pinned {
		if id, ok := snap.IDOf(p); !ok || id != want {
			t.Fatalf("snapshot IDOf(%s) = %#x, %v after two merges; want %#x", p, id, ok, want)
		}
		if got := snap.Paths(snap.DocsUnder(p)); len(got) != 1 || got[0] != p {
			t.Fatalf("snapshot DocsUnder(%s) = %v, want [%s]", p, got, p)
		}
	}
	if _, ok := snap.IDOf("/d"); ok {
		t.Fatal("snapshot resolved a document committed after the pin")
	}
	ix.Remove("/b")
	if _, ok := snap.IDOf("/b"); ok {
		t.Fatal("snapshot resolved a document removed after the merges")
	}
}

// TestSnapshotLivenessAfterMerge: liveness is read at call time in a
// segment a merge retired too. A snapshot pinned before a merge stops
// matching a document removed after it — through every read, a second
// merge in between included — and a rewritten one no longer matches
// under its pinned version's terms.
func TestSnapshotLivenessAfterMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(2)
	for _, p := range []string{"/a", "/b", "/c"} {
		ix.Add(p, []byte("apple"))
	}
	snap := ix.Snapshot()
	var ids []DocID
	for _, id := range snap.Lookup("apple").Slice() {
		ids = append(ids, DocID(id))
	}
	ix.ForceMerge()
	ix.Remove("/b")

	paths := func(label string, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v, want %v", label, got, want)
		}
	}
	paths(`Lookup("apple")`, snap.Paths(snap.Lookup("apple")), "/a", "/c")
	paths("AllDocs", snap.Paths(snap.AllDocs()), "/a", "/c")
	paths("DocsUnder(/)", snap.Paths(snap.DocsUnder("/")), "/a", "/c")
	paths(`LookupPrefix("app")`, snap.Paths(snap.LookupPrefix("app")), "/a", "/c")
	paths("PathsOf", snap.PathsOf(ids), "/a", "/c")
	if _, ok := snap.IDOf("/b"); ok {
		t.Fatal("IDOf(/b) resolves after its removal")
	}

	// Another merge, then a rewrite: the pinned slot follows two hops.
	ix.Add("/d", []byte("pear"))
	ix.ForceMerge()
	ix.Add("/c", []byte("pear"))
	paths(`Lookup("apple") after a second merge and a rewrite`, snap.Paths(snap.Lookup("apple")), "/a")
	if _, ok := snap.IDOf("/c"); ok {
		t.Fatal("IDOf(/c) resolves to its pinned version after a rewrite")
	}
}
