// Package remote implements a network protocol for content-based
// access, so a HAC volume can semantically mount query systems running
// elsewhere (§3 of the paper). The server side exposes an index over a
// document tree; the client side implements hac.Namespace.
//
// The protocol rides the wire package's multiplexed framing (DESIGN.md
// §12): many requests may be in flight per connection and responses
// interleave by request ID. Frame types:
//
//	fPing   → fPong
//	fSearch → fPage* — the server pages the result through the cursor
//	          machinery and streams one fPage frame per page; the last
//	          carries FlagFinal. Request payload: after(u64)
//	          pageSize(varint) limitPages(varint, 0 = all) scope(string,
//	          "" = whole tree) query(string). Each page leads with the
//	          index epoch it was served from (DESIGN.md §14), then the
//	          next cursor and the paths.
//	fFetch  → fData
//	fResync → fOK — rebuild the served index from its document tree.
//	fStatus → fStatV — epoch(uvarint) version(uvarint) docs(uvarint).
//
// Any request may instead end with a wire.TypeErr frame carrying a
// typed error; clients reconstruct the *vfs.PathError and its sentinel.
package remote

import "hacfs/internal/wire"

const (
	fPing uint8 = iota + 1
	fPong
	fSearch
	fPage
	fFetch
	fData
	fResync
	fOK
	fStatus
	fStatV
)

// maxField bounds one query, scope or path string on the wire.
const maxField = 64 * 1024

// maxFetch bounds a fetched document.
const maxFetch = 16 << 20

// maxFramePayload bounds one frame's payload: a fetched document plus
// slack for framing fields.
const maxFramePayload = maxFetch + 64*1024

// maxConnInflight bounds concurrently executing requests per
// connection.
const maxConnInflight = 64

// maxPageEntries bounds the declared path count of one result page.
const maxPageEntries = 1 << 20

// appendSearchReq encodes an fSearch payload.
func appendSearchReq(b []byte, q, scope string, after uint64, pageSize, limitPages int) []byte {
	b = wire.AppendUvarint(b, after)
	b = wire.AppendVarint(b, int64(pageSize))
	b = wire.AppendVarint(b, int64(limitPages))
	b = wire.AppendString(b, scope)
	b = wire.AppendString(b, q)
	return b
}

// decodeSearchReq decodes an fSearch payload.
func decodeSearchReq(payload []byte) (q, scope string, after uint64, pageSize, limitPages int, err error) {
	d := wire.NewDec(payload)
	after = d.Uvarint()
	pageSize = d.Int()
	limitPages = d.Int()
	scope = d.String(maxField)
	q = d.String(maxField)
	return q, scope, after, pageSize, limitPages, d.Close()
}

// appendPage encodes an fPage payload: the serving epoch, the next
// cursor and one page of paths.
func appendPage(b []byte, epoch, next uint64, paths []string) []byte {
	b = wire.AppendUvarint(b, epoch)
	b = wire.AppendUvarint(b, next)
	b = wire.AppendStrings(b, paths)
	return b
}

// decodePage decodes an fPage payload.
func decodePage(payload []byte) (paths []string, next, epoch uint64, err error) {
	d := wire.NewDec(payload)
	epoch = d.Uvarint()
	next = d.Uvarint()
	paths = d.Strings(maxField, maxPageEntries)
	return paths, next, epoch, d.Close()
}
