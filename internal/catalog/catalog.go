// Package catalog implements the central database sketched in §3.2 of
// the paper: "it is also possible to collect the names, queries and
// query-results of many semantic directories of many users in a
// central database that itself can be indexed and searched. Users can
// browse and search this database and find others who have similar
// tastes as they have."
//
// A catalog is an ordinary HAC volume. Each published semantic
// directory is one file, /<user>/<url.PathEscape(dir path)>, whose
// content is its Entry as JSON; the volume's own index makes the
// entries searchable. With auto-sync on "/" (New, and cmd/haccatd,
// which serves one) an entry is searchable once its write returns. The
// functions below take the volume in-process (*hac.FS) or served
// (*remotefs.MuxClient) alike.
package catalog

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"unicode/utf8"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Volume is the catalog's store: a file system that answers one page of
// a content search.
type Volume interface {
	vfs.FileSystem
	SearchPageContext(ctx context.Context, query, scope string, after uint64, limit int) ([]string, uint64, error)
}

// Entry is one published semantic directory.
type Entry struct {
	User    string
	Path    string   // path within the user's volume
	Query   string   // display-form query
	Targets []string // current link targets (the query-result)
}

// Match is one similarity result.
type Match struct {
	Entry      Entry
	Similarity float64 // Jaccard overlap of target sets, in (0, 1]
}

// New returns an empty in-process catalog: a HAC volume on a fresh
// content-addressed substrate, auto-synced everywhere.
func New() *hac.FS {
	fs := hac.New(cas.New(nil), hac.Options{})
	_ = fs.EnableAutoSync("/") // cannot fail: "/" is clean
	return fs
}

// entryFile is where the entry for the user's directory dir lives.
func entryFile(user, dir string) string { return "/" + user + "/" + url.PathEscape(dir) }

// checkUser fails unless user is one path component.
func checkUser(op, user string) error {
	if _, base := vfs.Split("/" + user); user == "" || base != user {
		return &vfs.PathError{Op: op, Path: user, Err: fmt.Errorf("%w: a user name is one path component", vfs.ErrInvalid)}
	}
	return nil
}

// Publish writes an entry for every semantic directory of fs under the
// given user name, replacing the user's earlier entry for the same
// directory, removes the user's entries for directories fs no longer
// holds, and returns how many it wrote.
func Publish(cat Volume, user string, fs *hac.FS) (int, error) {
	if err := checkUser("publish", user); err != nil {
		return 0, err
	}
	if err := cat.MkdirAll("/" + user); err != nil {
		return 0, err
	}
	dirs := fs.SemanticDirs()
	wrote := make(map[string]bool, len(dirs))
	for i, dir := range dirs {
		q, err := fs.QueryDisplay(dir)
		if err != nil {
			return i, err
		}
		targets, err := fs.LinkTargets(dir)
		if err != nil {
			return i, err
		}
		// JSON holds UTF-8 only: any other name would come back changed.
		if !utf8.ValidString(strings.Join(append([]string{user, dir, q}, targets...), "\n")) {
			return i, &vfs.PathError{Op: "publish", Path: dir, Err: fmt.Errorf("%w: a name that is not UTF-8", vfs.ErrInvalid)}
		}
		data, _ := json.Marshal(Entry{User: user, Path: dir, Query: q, Targets: targets}) // cannot fail on strings
		if err := cat.WriteFile(entryFile(user, dir), data); err != nil {
			return i, err
		}
		wrote[url.PathEscape(dir)] = true
	}
	held, err := cat.ReadDir("/" + user)
	if err != nil {
		return len(dirs), err
	}
	for _, e := range held {
		if e.Type == vfs.TypeFile && !wrote[e.Name] {
			if err := cat.Remove("/" + user + "/" + e.Name); err != nil {
				return len(dirs), err
			}
		}
	}
	return len(dirs), nil
}

// read decodes the entry file at p. An entry must name the user and
// directory its file stands for; one that names another is an error.
func read(cat Volume, p string) (Entry, error) {
	data, err := cat.ReadFile(p)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, &vfs.PathError{Op: "catalog", Path: p, Err: fmt.Errorf("%w: %v", vfs.ErrInvalid, err)}
	}
	if entryFile(e.User, e.Path) != p {
		return Entry{}, &vfs.PathError{Op: "catalog", Path: p, Err: fmt.Errorf("%w: the file holds entry %s:%s", vfs.ErrInvalid, e.User, e.Path)}
	}
	return e, nil
}

func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		return cmp.Or(strings.Compare(a.User, b.User), strings.Compare(a.Path, b.Path))
	})
}

// Search runs a boolean query over the published entries — their user
// names, paths, queries and result paths — with the volume's planner,
// and returns the matches sorted by user, then path.
func Search(cat Volume, q string) ([]Entry, error) {
	var out []Entry
	for after := uint64(0); ; {
		page, next, err := cat.SearchPageContext(context.TODO(), q, "/", after, 512)
		if err != nil {
			return nil, err
		}
		for _, p := range page {
			e, err := read(cat, p)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		if next == 0 {
			sortEntries(out)
			return out, nil
		}
		after = next
	}
}

// Entries returns every entry, sorted by user, then path.
func Entries(cat Volume) ([]Entry, error) {
	users, err := cat.ReadDir("/")
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, u := range users {
		files, err := cat.ReadDir("/" + u.Name)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			e, err := read(cat, "/"+u.Name+"/"+f.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out, nil
}

// SimilarTo ranks other users' entries by the Jaccard overlap of their
// targets with the given entry's — "find others who have similar
// tastes" — ties broken by user, then path. Entries of the same user and
// entries with no overlap are omitted.
func SimilarTo(cat Volume, user, path string) ([]Match, error) {
	if err := checkUser("similar", user); err != nil {
		return nil, err
	}
	self, err := read(cat, entryFile(user, path))
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, &vfs.PathError{Op: "similar", Path: user + ":" + path, Err: vfs.ErrNotExist}
	}
	if err != nil {
		return nil, err
	}
	all, err := Entries(cat)
	if err != nil {
		return nil, err
	}
	mine := make(map[string]bool, len(self.Targets))
	for _, t := range self.Targets {
		mine[t] = true
	}
	var out []Match
	for _, e := range all {
		if e.User == user {
			continue
		}
		inter, union := 0, len(mine)
		for _, t := range e.Targets {
			if mine[t] {
				inter++
			} else {
				union++
			}
		}
		if inter > 0 {
			out = append(out, Match{Entry: e, Similarity: float64(inter) / float64(union)})
		}
	}
	// Stable: ties keep Entries' order, by user, then path.
	slices.SortStableFunc(out, func(a, b Match) int { return cmp.Compare(b.Similarity, a.Similarity) })
	return out, nil
}
