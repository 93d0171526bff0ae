package catalog

import (
	"context"
	"fmt"
	"log"
	"math"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// Network form of the §3.2 central database: users publish the names,
// queries and query-results of their semantic directories to a shared
// catalog server, then search it and ask for similar classifications.
// The protocol rides the wire package's framing (DESIGN.md §12): one
// request frame type per operation, answered by one cReply frame whose
// payload depends on the request, or by a typed wire.TypeErr frame.
//
//	cPing    → cReply, both empty
//	cPublish → user(string) entries → count(uvarint)
//	cSearch  → query(string) → entries
//	cSimilar → user(string) path(string) → matches
//	cEntries → empty → entries
const (
	cPing uint8 = iota + 1
	cPublish
	cSearch
	cSimilar
	cEntries
	cReply
)

// Decode bounds.
const (
	maxFrame    = 16 << 20 // one request or reply payload
	maxField    = 64 << 10 // one user, path, query or target string
	maxList     = 1 << 20  // entries per list, targets per entry
	maxInflight = 64       // concurrently executing requests per connection
)

func appendEntries(b []byte, entries []Entry) []byte {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendEntry(b, e)
	}
	return b
}

func appendEntry(b []byte, e Entry) []byte {
	b = wire.AppendString(b, e.User)
	b = wire.AppendString(b, e.Path)
	b = wire.AppendString(b, e.Query)
	return wire.AppendStrings(b, e.Targets)
}

func decodeEntry(d *wire.Dec) Entry {
	return Entry{
		User:    d.String(maxField),
		Path:    d.String(maxField),
		Query:   d.String(maxField),
		Targets: d.Strings(maxField, maxList),
	}
}

func decodeEntries(d *wire.Dec) []Entry {
	out := make([]Entry, 0, d.Count(maxList))
	for i := 0; i < cap(out) && d.Err() == nil; i++ {
		out = append(out, decodeEntry(d))
	}
	return out
}

// store is what the server needs of a Catalog; tests substitute one
// that fails on demand.
type store interface {
	Add(Entry)
	Search(q string) ([]Entry, error)
	SimilarTo(user, path string) ([]Match, error)
	Entries() []Entry
}

// Server exposes a Catalog over TCP. The accept loop and the
// per-connection reader are the wire package's; Serve and Close come
// from it.
type Server struct {
	*wire.Server
	cat store
}

// NewServer wraps a catalog (use New() for a fresh one). logger may be
// nil.
func NewServer(cat *Catalog, logger *log.Logger) *Server { return newServer(cat, logger) }

func newServer(cat store, logger *log.Logger) *Server {
	s := &Server{cat: cat}
	s.Server = wire.NewServer(maxFrame, maxInflight, logger,
		func() (wire.Handler, func()) { return s, nil })
	return s
}

// ServeFrame implements wire.Handler.
func (s *Server) ServeFrame(_ context.Context, w *wire.ResponseWriter, f wire.Frame) {
	reply, err := s.answer(f)
	if err == nil && len(reply) > maxFrame {
		err = fmt.Errorf("catalog: reply of %d bytes exceeds the %d-byte frame budget", len(reply), maxFrame)
	}
	if err != nil {
		w.Err(f.ID, err)
		return
	}
	w.Send(wire.Frame{Type: cReply, Flags: wire.FlagFinal, ID: f.ID, Payload: reply})
}

// answer executes one request and returns the reply payload.
func (s *Server) answer(f wire.Frame) ([]byte, error) {
	d := wire.NewDec(f.Payload)
	switch f.Type {
	case cPing:
		return nil, d.Close()
	case cPublish:
		user := d.String(maxField)
		entries := decodeEntries(d)
		if err := d.Close(); err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.User != user {
				return nil, &vfs.PathError{Op: "publish", Path: e.key(),
					Err: fmt.Errorf("%w: entry user does not match publisher %q", vfs.ErrInvalid, user)}
			}
			s.cat.Add(e)
		}
		return wire.AppendUvarint(nil, uint64(len(entries))), nil
	case cSearch:
		q := d.String(maxField)
		if err := d.Close(); err != nil {
			return nil, err
		}
		hits, err := s.cat.Search(q)
		if err != nil {
			return nil, err
		}
		return appendEntries(nil, hits), nil
	case cSimilar:
		user, path := d.String(maxField), d.String(maxField)
		if err := d.Close(); err != nil {
			return nil, err
		}
		matches, err := s.cat.SimilarTo(user, path)
		if err != nil {
			return nil, err
		}
		b := wire.AppendUvarint(nil, uint64(len(matches)))
		for _, m := range matches {
			b = appendEntry(b, m.Entry)
			b = wire.AppendUvarint(b, math.Float64bits(m.Similarity))
		}
		return b, nil
	case cEntries:
		if err := d.Close(); err != nil {
			return nil, err
		}
		return appendEntries(nil, s.cat.Entries()), nil
	default:
		return nil, fmt.Errorf("catalog: unknown frame type %d", f.Type)
	}
}

// The client's methods, as the wire call layer indexes them (series
// catalog_rpc_*{op=...}); a catalog call joins a caller's trace but
// never opens one.
var methods = []wire.Method{
	cPing - 1:    {Label: "ping", Span: "rpc.catalog.ping"},
	cPublish - 1: {Label: "publish", Span: "rpc.catalog.publish"},
	cSearch - 1:  {Label: "search", Span: "rpc.catalog.search"},
	cSimilar - 1: {Label: "similar", Span: "rpc.catalog.similar"},
	cEntries - 1: {Label: "entries", Span: "rpc.catalog.entries"},
}

// Client talks to a catalog server. Safe for concurrent use.
type Client struct{ c *wire.Client }

// Dial creates a client for the catalog server at addr. The connection
// is established lazily.
func Dial(addr string) *Client {
	return &Client{c: wire.NewClient(addr, maxFrame, "catalog", "op", methods)}
}

// Close drops the connection; later calls re-dial.
func (c *Client) Close() error { return c.c.Close() }

// call performs one request and returns a decoder over the reply.
func (c *Client) call(typ uint8, payload []byte) (*wire.Dec, error) {
	f, err := c.c.Call(context.Background(), int(typ)-1, typ, payload)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if f.Type != cReply {
		return nil, fmt.Errorf("catalog: unexpected frame type %d", f.Type)
	}
	return wire.NewDec(f.Payload), nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.call(cPing, nil)
	return err
}

// Harvest collects the publishable entries of a volume.
func Harvest(user string, fs *hac.FS) ([]Entry, error) {
	var out []Entry
	for _, dir := range fs.SemanticDirs() {
		q, err := fs.QueryDisplay(dir)
		if err != nil {
			return nil, err
		}
		targets, err := fs.LinkTargets(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{User: user, Path: dir, Query: q, Targets: targets})
	}
	return out, nil
}

// Publish harvests a volume's semantic directories and ships them to
// the server, returning how many entries were published.
func (c *Client) Publish(user string, fs *hac.FS) (int, error) {
	entries, err := Harvest(user, fs)
	if err != nil {
		return 0, err
	}
	return c.publish(user, entries)
}

func (c *Client) publish(user string, entries []Entry) (int, error) {
	d, err := c.call(cPublish, appendEntries(wire.AppendString(nil, user), entries))
	if err != nil {
		return 0, err
	}
	n := d.Uvarint()
	return int(n), d.Close()
}

// entries performs a request answered by an entry list.
func (c *Client) entries(typ uint8, payload []byte) ([]Entry, error) {
	d, err := c.call(typ, payload)
	if err != nil {
		return nil, err
	}
	out := decodeEntries(d)
	return out, d.Close()
}

// Search queries the remote catalog.
func (c *Client) Search(q string) ([]Entry, error) {
	return c.entries(cSearch, wire.AppendString(nil, q))
}

// SimilarTo asks for classifications similar to the given entry.
func (c *Client) SimilarTo(user, path string) ([]Match, error) {
	d, err := c.call(cSimilar, wire.AppendString(wire.AppendString(nil, user), path))
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, d.Count(maxList))
	for i := 0; i < cap(out) && d.Err() == nil; i++ {
		out = append(out, Match{Entry: decodeEntry(d), Similarity: math.Float64frombits(d.Uvarint())})
	}
	return out, d.Close()
}

// Entries lists the whole remote catalog.
func (c *Client) Entries() ([]Entry, error) { return c.entries(cEntries, nil) }
