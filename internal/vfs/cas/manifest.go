package cas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"hacfs/internal/vfs"
)

// Entry describes one node of a volume tree: its path, kind, and — for
// files — the content hash and size. A manifest plus the blobs its
// hashes name is a complete, self-contained description of the tree.
type Entry struct {
	Path    string
	Type    vfs.NodeType
	Hash    Hash   // files only
	Size    int64  // files only
	Target  string // symlinks only
	ModTime time.Time
}

// Manifest is an ordered tree description: entries sorted by path,
// which places every parent before its children (a parent is a strict
// prefix of its descendants). The first entry is always the root
// directory "/".
type Manifest struct {
	Entries []Entry
}

// Sort orders entries by path; builders that append out of order call
// it before encoding.
func (m *Manifest) Sort() {
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Path < m.Entries[j].Path })
}

// Lookup returns the entry at path, if any.
func (m *Manifest) Lookup(path string) (Entry, bool) {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].Path >= path })
	if i < len(m.Entries) && m.Entries[i].Path == path {
		return m.Entries[i], true
	}
	return Entry{}, false
}

// LogicalBytes returns the sum of file sizes described by the manifest.
func (m *Manifest) LogicalBytes() int64 {
	var n int64
	for _, e := range m.Entries {
		if e.Type == vfs.TypeFile {
			n += e.Size
		}
	}
	return n
}

// MissingFrom returns the distinct hashes named by the manifest that
// store does not hold — the blobs a receiver must fetch before it can
// materialize the tree.
func (m *Manifest) MissingFrom(store *BlobStore) []Hash {
	var out []Hash
	seen := make(map[Hash]bool)
	for _, e := range m.Entries {
		if e.Type != vfs.TypeFile || seen[e.Hash] {
			continue
		}
		seen[e.Hash] = true
		if !store.Has(e.Hash) {
			out = append(out, e.Hash)
		}
	}
	return out
}

// Manifest codec: a compact, bounded binary form used inside v4 volume
// images and on the remotefs wire.
//
//	magic "HACM" | u8 version | u32 count
//	per entry:
//	  u16 pathLen | path | u8 type
//	  type=file:    hash[32] | u64 size | i64 modTimeUnixNano
//	  type=dir:     i64 modTimeUnixNano
//	  type=symlink: u16 targetLen | target | i64 modTimeUnixNano
//
// The decoder validates every length against the remaining input before
// allocating, rejects unknown versions/types, and requires strictly
// increasing paths starting at "/" — so it can never panic or
// over-allocate on adversarial input (FuzzManifestCodec).
const (
	manifestVersion  = 1
	maxManifestEntry = 1 << 22 // 4M entries ~ absurdly large volume
	maxPathLen       = 64 << 10
)

var manifestMagic = [4]byte{'H', 'A', 'C', 'M'}

// ErrBadManifest rejects a malformed manifest encoding.
var ErrBadManifest = errors.New("cas: malformed manifest")

// AppendBinary appends the encoded manifest to buf and returns the
// extended slice.
func (m *Manifest) AppendBinary(buf []byte) []byte {
	buf = appendManifestHead(buf, len(m.Entries))
	for _, e := range m.Entries {
		buf = appendEntry(buf, e.Path, e.Type, e.Hash, e.Size, e.Target, e.ModTime)
	}
	return buf
}

// appendManifestHead appends the header of a manifest of count entries.
func appendManifestHead(buf []byte, count int) []byte {
	buf = append(buf, manifestMagic[:]...)
	buf = append(buf, manifestVersion)
	return binary.BigEndian.AppendUint32(buf, uint32(count))
}

// appendEntry appends one encoded entry: an Entry's fields, or a tree
// node's with its path still in a buffer.
func appendEntry[P string | []byte](buf []byte, path P, typ vfs.NodeType, hash Hash, size int64, target string, modTime time.Time) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(path)))
	buf = append(buf, path...)
	buf = append(buf, byte(typ))
	switch typ {
	case vfs.TypeFile:
		buf = append(buf, hash[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(size))
	case vfs.TypeSymlink:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(target)))
		buf = append(buf, target...)
	}
	return binary.BigEndian.AppendUint64(buf, uint64(modTime.UnixNano()))
}

// EncodeBinary returns the encoded manifest.
func (m *Manifest) EncodeBinary() []byte {
	// Rough size estimate avoids regrowth: header + per-entry overhead.
	n := 9
	for _, e := range m.Entries {
		n += 2 + len(e.Path) + 1 + 32 + 8 + 8 + 2 + len(e.Target)
	}
	return m.AppendBinary(make([]byte, 0, n))
}

// DecodeManifest parses an encoded manifest. Entries come back sorted;
// any framing violation returns ErrBadManifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	bad := func(what string) error { return fmt.Errorf("%w: %s", ErrBadManifest, what) }
	if len(data) < 9 {
		return nil, bad("short header")
	}
	if [4]byte(data[:4]) != manifestMagic {
		return nil, bad("bad magic")
	}
	if data[4] != manifestVersion {
		return nil, bad("unknown version")
	}
	count := binary.BigEndian.Uint32(data[5:9])
	if count > maxManifestEntry {
		return nil, bad("entry count out of range")
	}
	rest := data[9:]
	// Every entry costs at least 12 bytes (1-byte path, dir case), so
	// the count can be sanity-bounded by the input length before the
	// allocation below.
	if int64(count)*12 > int64(len(rest)) {
		return nil, bad("entry count exceeds input")
	}
	m := &Manifest{Entries: make([]Entry, 0, count)}
	take := func(n int) ([]byte, bool) {
		if n < 0 || len(rest) < n {
			return nil, false
		}
		b := rest[:n]
		rest = rest[n:]
		return b, true
	}
	prev := ""
	for i := uint32(0); i < count; i++ {
		b, ok := take(2)
		if !ok {
			return nil, bad("truncated path length")
		}
		plen := int(binary.BigEndian.Uint16(b))
		if plen == 0 || plen > maxPathLen {
			return nil, bad("path length out of range")
		}
		pb, ok := take(plen)
		if !ok {
			return nil, bad("truncated path")
		}
		path := string(pb)
		if i == 0 {
			if path != "/" {
				return nil, bad("first entry is not the root")
			}
		} else if path <= prev {
			return nil, bad("paths not strictly increasing")
		}
		if path[0] != '/' {
			return nil, bad("relative path")
		}
		prev = path
		tb, ok := take(1)
		if !ok {
			return nil, bad("truncated type")
		}
		e := Entry{Path: path, Type: vfs.NodeType(tb[0])}
		switch e.Type {
		case vfs.TypeFile:
			hb, ok := take(len(Hash{}))
			if !ok {
				return nil, bad("truncated hash")
			}
			copy(e.Hash[:], hb)
			sb, ok := take(8)
			if !ok {
				return nil, bad("truncated size")
			}
			e.Size = int64(binary.BigEndian.Uint64(sb))
			if e.Size < 0 {
				return nil, bad("negative size")
			}
		case vfs.TypeDir:
		case vfs.TypeSymlink:
			b, ok := take(2)
			if !ok {
				return nil, bad("truncated target length")
			}
			tlen := int(binary.BigEndian.Uint16(b))
			if tlen == 0 || tlen > maxPathLen {
				return nil, bad("target length out of range")
			}
			tgt, ok := take(tlen)
			if !ok {
				return nil, bad("truncated target")
			}
			e.Target = string(tgt)
		default:
			return nil, bad("unknown node type")
		}
		mb, ok := take(8)
		if !ok {
			return nil, bad("truncated modtime")
		}
		e.ModTime = time.Unix(0, int64(binary.BigEndian.Uint64(mb)))
		m.Entries = append(m.Entries, e)
	}
	if len(rest) != 0 {
		return nil, bad("trailing bytes")
	}
	return m, nil
}
