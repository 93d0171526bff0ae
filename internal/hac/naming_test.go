package hac

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// eagerNames is the naming rule a commit once applied and a name-index
// build applies now: permanent links keep their names, then each
// transient target, in target order, takes its base name or the first
// free ~n against the names given so far and the physical entries.
func eagerNames(perm map[string]string, trans []string, physical map[string]bool) map[string]string {
	taken := map[string]bool{}
	for _, name := range perm {
		taken[name] = true
	}
	out := map[string]string{}
	for _, t := range trans {
		base := linkBaseName(t)
		name := base
		for n := 2; taken[name] || physical[name]; n++ {
			name = base + "~" + strconv.Itoa(n)
		}
		taken[name] = true
		out[t] = name
	}
	return out
}

// namingWalk drives one seeded random sequence over two source
// directories whose files share base names (/x/nK.txt, /y/nK.txt; /y is
// auto-synced) and a few semantic directories, checking after every step
// what the links' names may do:
//
//   - names are unique, and never a physical entry's name;
//   - a name an API showed (ReadDir, Links, Lstat) stays the link's name
//     for as long as the link stays, across saves and loads — unless the
//     step itself relinked the target (a Symlink or a link's Rename onto
//     it) or renamed the document (its links carry their names, which
//     are then another target's);
//   - a SemDir that makes a directory, or converts a plain one, followed
//     by a ReadDir shows exactly the names eagerNames gives.
func namingWalk(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	fs := New(cas.New(nil), Options{})
	terms := []string{"apple", "pear", "plum"}
	content := func() []byte {
		return []byte(terms[rng.Intn(len(terms))] + " " + terms[rng.Intn(len(terms))])
	}
	source := func() string {
		return fmt.Sprintf("/%s/n%d.txt", []string{"x", "y"}[rng.Intn(2)], rng.Intn(6))
	}
	for _, d := range []string{"/x", "/y"} {
		if err := fs.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/n%d.txt", d, k), content()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/y"); err != nil {
		t.Fatal(err)
	}

	dirs := []string{"/s0", "/s1", "/s2", "/p0", "/p1"}
	semantic := map[string]bool{}
	semDir := func() string {
		var sd []string
		for _, d := range dirs {
			if semantic[d] {
				sd = append(sd, d)
			}
		}
		if len(sd) == 0 {
			return ""
		}
		return sd[rng.Intn(len(sd))]
	}
	// shown[dir][target] is the name an API showed for the link.
	shown := map[string]map[string]string{}
	// anyShown picks a link of dir whose name was shown, if any.
	anyShown := func(dir string) (target, name string, ok bool) {
		var targets []string
		for target := range shown[dir] {
			targets = append(targets, target)
		}
		slices.Sort(targets)
		if len(targets) == 0 {
			return "", "", false
		}
		target = targets[rng.Intn(len(targets))]
		return target, shown[dir][target], true
	}
	forget := func(targets ...string) {
		for _, byTarget := range shown {
			for _, t := range targets {
				delete(byTarget, t)
			}
		}
	}
	physical := func(step int, dir string) map[string]bool {
		entries, err := fs.Under().ReadDir(dir)
		if err != nil {
			t.Fatalf("step %d: substrate ReadDir(%s): %v", step, dir, err)
		}
		names := map[string]bool{}
		for _, e := range entries {
			names[e.Name] = true
		}
		return names
	}
	// see records the names an API showed for dir's links, failing if
	// one differs from the name shown before.
	see := func(step int, api, dir string, byTarget map[string]string) {
		if shown[dir] == nil {
			shown[dir] = map[string]string{}
		}
		onDisk := physical(step, dir)
		names := map[string]string{}
		for target, name := range byTarget {
			if prev, ok := shown[dir][target]; ok && prev != name {
				t.Fatalf("step %d: %s shows %s/%s → %s, shown before as %s", step, api, dir, name, target, prev)
			}
			if other, dup := names[name]; dup {
				t.Fatalf("step %d: %s: %s names both %s and %s", step, api, dir+"/"+name, other, target)
			}
			if onDisk[name] {
				t.Fatalf("step %d: %s: link %s/%s → %s shares its name with a physical entry", step, api, dir, name, target)
			}
			names[name] = target
			shown[dir][target] = name
		}
	}
	readDir := func(step int, dir string) map[string]string {
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("step %d: ReadDir(%s): %v", step, dir, err)
		}
		byTarget := map[string]string{}
		for i, e := range entries {
			if i > 0 && entries[i-1].Name >= e.Name {
				t.Fatalf("step %d: ReadDir(%s) out of order or repeated at %s", step, dir, e.Name)
			}
			if e.Type == vfs.TypeSymlink {
				byTarget[e.Target] = e.Name
			}
		}
		see(step, "ReadDir", dir, byTarget)
		return byTarget
	}
	links := func(step int, dir string) []Link {
		ls, err := fs.Links(dir)
		if err != nil {
			t.Fatalf("step %d: Links(%s): %v", step, dir, err)
		}
		byTarget := map[string]string{}
		for _, l := range ls {
			if l.Class != Prohibited {
				byTarget[l.Target] = l.Name
			}
		}
		see(step, "Links", dir, byTarget)
		return ls
	}
	ignore := func(step int, op string, err error) {
		if err != nil && !errors.Is(err, vfs.ErrExist) && !errors.Is(err, vfs.ErrNotExist) &&
			!errors.Is(err, vfs.ErrNotDir) && !errors.Is(err, vfs.ErrIsDir) && !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("step %d: %s: %v", step, op, err)
		}
	}

	for step := 0; step < steps; step++ {
		dir := semDir()
		switch op := rng.Intn(12); {
		case op == 0 || dir == "":
			d := dirs[rng.Intn(len(dirs))]
			fresh := !semantic[d]
			if _, err := fs.Lstat(d); fresh && err != nil && d[1] == 'p' {
				// A plain directory holding a file named like a target.
				if err := fs.MkdirAll(d); err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(d+"/n1.txt", []byte("kiwi")); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.SemDir(d, terms[rng.Intn(len(terms))]); err != nil {
				t.Fatalf("step %d: SemDir(%s): %v", step, d, err)
			}
			semantic[d] = true
			if fresh {
				byTarget := readDir(step, d)
				ls := links(step, d)
				perm := map[string]string{}
				var trans []string
				for _, l := range ls {
					switch l.Class {
					case Permanent:
						perm[l.Target] = l.Name
					case Transient:
						trans = append(trans, l.Target)
					}
				}
				want := eagerNames(perm, trans, physical(step, d))
				for t2, name := range perm {
					want[t2] = name
				}
				if !reflect.DeepEqual(byTarget, want) {
					t.Fatalf("step %d: SemDir(%s) then ReadDir shows %v, the naming rule gives %v", step, d, byTarget, want)
				}
			}
		case op == 1:
			switch rng.Intn(3) {
			case 0:
				_, err := fs.Reindex("/")
				ignore(step, "Reindex", err)
			case 1:
				ignore(step, "Sync", fs.Sync(dir))
			default:
				ignore(step, "SyncAll", fs.SyncAll())
			}
		case op == 2:
			p := source()
			ignore(step, "WriteFile "+p, fs.WriteFile(p, content()))
		case op == 3:
			target := source()
			name := []string{"n1.txt", "n2.txt", "l1", "n3.txt~2"}[rng.Intn(4)]
			forget(target)
			ignore(step, "Symlink", fs.Symlink(target, dir+"/"+name))
		case op == 4:
			ignore(step, "MarkPermanent", fs.MarkPermanent(dir, source()))
		case op == 5:
			if rng.Intn(2) == 0 {
				ignore(step, "MarkProhibited", fs.MarkProhibited(dir, source()))
			} else {
				ignore(step, "Unprohibit", fs.Unprohibit(dir, source()))
			}
		case op == 6:
			if _, name, ok := anyShown(dir); ok {
				ignore(step, "Remove link", fs.Remove(dir+"/"+name))
			}
		case op == 7:
			if rng.Intn(2) == 0 {
				from, to := source(), source()
				forget(from, to)
				ignore(step, "Rename document", fs.Rename(from, to))
			} else if target, name, ok := anyShown(dir); ok {
				forget(target)
				ignore(step, "Rename link", fs.Rename(dir+"/"+name, semDir()+"/m"+strconv.Itoa(rng.Intn(3))))
			}
		case op == 8:
			name := []string{"n1.txt", "n2.txt~2", "q.txt", "n4.txt"}[rng.Intn(4)]
			ignore(step, "WriteFile in "+dir, fs.WriteFile(dir+"/"+name, []byte("kiwi")))
		case op == 9:
			var buf bytes.Buffer
			if err := fs.SaveVolume(&buf); err != nil {
				t.Fatalf("step %d: SaveVolume: %v", step, err)
			}
			loaded, err := LoadVolume(&buf, Options{})
			if err != nil {
				t.Fatalf("step %d: LoadVolume: %v", step, err)
			}
			fs = loaded
			if err := fs.EnableAutoSync("/y"); err != nil {
				t.Fatal(err)
			}
		case op == 10:
			// Concurrent first lookups: every reader sees one naming.
			var wg sync.WaitGroup
			got := make([][]vfs.DirEntry, 4)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i%2 == 1 {
						fs.Lstat(dir + "/n1.txt")
					}
					got[i], _ = fs.ReadDir(dir)
				}(i)
			}
			wg.Wait()
			for i := 1; i < len(got); i++ {
				if !reflect.DeepEqual(got[i], got[0]) {
					t.Fatalf("step %d: concurrent ReadDir(%s) disagree: %v vs %v", step, dir, got[i], got[0])
				}
			}
			readDir(step, dir)
		default:
			switch rng.Intn(3) {
			case 0:
				readDir(step, dir)
			case 1:
				links(step, dir)
			default:
				if info, err := fs.Lstat(dir + "/n1.txt"); err == nil && info.Type == vfs.TypeSymlink {
					see(step, "Lstat", dir, map[string]string{info.Target: "n1.txt"})
				}
			}
		}
		// A link that left lets its target take any name when it
		// returns. LinkTargets names nothing, so this keeps links unnamed.
		for d, byTarget := range shown {
			targets, err := fs.LinkTargets(d)
			if err != nil {
				t.Fatalf("step %d: LinkTargets(%s): %v", step, d, err)
			}
			linked := map[string]bool{}
			for _, target := range targets {
				linked[target] = true
			}
			for target := range byTarget {
				if !linked[target] {
					delete(byTarget, target)
				}
			}
		}
	}
	// The audit is relative to the index, which plain writes and renames
	// under /x left behind.
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}

// TestNamingProperties walks seeded random sequences of semantic
// directory creation, resyncs, auto-synced and plain writes, Symlink,
// MarkPermanent, prohibitions, renames, physical creates, save/load and
// concurrent first lookups (namingWalk).
func TestNamingProperties(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			namingWalk(t, seed, 150)
		})
	}
}

// TestUnlistedNameMovesWithItsTarget: a document renamed before any API
// read its link's name keeps the name the naming rule gives at its old
// path, as a link named at its commit would: the link moves, its name
// stays.
func TestUnlistedNameMovesWithItsTarget(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	from := "/docs/apple1.txt"
	for _, to := range []string{"/docs/renamed.txt", "/docs/again.txt"} {
		if err := fs.Rename(from, to); err != nil {
			t.Fatal(err)
		}
		if target, err := fs.Readlink("/sel/apple1.txt"); err != nil || target != to {
			t.Fatalf("after the rename to %s: /sel/apple1.txt → %q, %v", to, target, err)
		}
		if _, err := fs.Lstat("/sel/" + vfs.Base(to)); err == nil {
			t.Fatalf("after the rename to %s: the link also answers under its new base name", to)
		}
		from = to
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}

// TestRestoredNamesOutliveCommit: names a load restored are names shown.
// /sel/apple1.txt~2 was named beside a physical apple1.txt since removed,
// so a fresh naming would call it apple1.txt; after the load it keeps its
// name, and a commit that adds a target sorting before it names the add
// after it.
func TestRestoredNamesOutliveCommit(t *testing.T) {
	fs := newCASTestFS(t, nil)
	if err := fs.MkdirAll("/sel"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/sel/apple1.txt", []byte("kiwi")); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/apple1.txt", []byte("pear")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if target, err := fs.Readlink("/sel/apple1.txt~2"); err != nil || target != "/docs/apple1.txt" {
		t.Fatalf("before: %q, %v", target, err)
	}
	if err := fs.Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatal(err)
	}
	fs, err := LoadVolume(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/apple1.txt", []byte("apple")); err != nil {
		t.Fatal(err)
	}
	// Reindexing /a alone lists nothing of /sel.
	if _, err := fs.Reindex("/a"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"apple1.txt~2": "/docs/apple1.txt", "apple1.txt": "/a/apple1.txt"} {
		if target, err := fs.Readlink("/sel/" + name); err != nil || target != want {
			t.Fatalf("/sel/%s → %q, %v; want %s", name, target, err, want)
		}
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}

// TestConcurrentFirstLookups: readers racing to a directory a SemDir
// left unnamed — lookups, listings, Links, a MetadataBytes — build its
// name index once, and all see the one naming.
func TestConcurrentFirstLookups(t *testing.T) {
	fs := New(cas.New(nil), Options{})
	for _, d := range []string{"/x", "/y"} {
		if err := fs.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 40; k++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/n%02d.txt", d, k), []byte("apple")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		dir := fmt.Sprintf("/s%d", round)
		if err := fs.SemDir(dir, "apple"); err != nil {
			t.Fatal(err)
		}
		const readers = 6
		listings := make([][]vfs.DirEntry, readers)
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch i % 3 {
				case 0:
					if _, err := fs.Readlink(dir + "/n07.txt~2"); err != nil {
						t.Errorf("Readlink: %v", err)
					}
				case 1:
					if _, err := fs.Links(dir); err != nil {
						t.Errorf("Links: %v", err)
					}
				default:
					fs.MetadataBytes()
				}
				var err error
				if listings[i], err = fs.ReadDir(dir); err != nil {
					t.Errorf("ReadDir: %v", err)
				}
			}(i)
		}
		wg.Wait()
		for i := 1; i < readers; i++ {
			if !reflect.DeepEqual(listings[i], listings[0]) {
				t.Fatalf("%s: readers disagree: %v vs %v", dir, listings[i], listings[0])
			}
		}
		if n := len(listings[0]); n != 80 {
			t.Fatalf("%s lists %d links, want 80", dir, n)
		}
		if target, err := fs.Readlink(dir + "/n07.txt~2"); err != nil || target != "/y/n07.txt" {
			t.Fatalf("%s/n07.txt~2 → %q, %v; want /y/n07.txt", dir, target, err)
		}
	}
}
