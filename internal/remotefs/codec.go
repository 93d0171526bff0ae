package remotefs

import (
	"time"

	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// Payload codec (DESIGN.md §12): every request and response is one
// self-contained frame payload with a fixed field schema, so frames
// from many in-flight requests can share a connection. Every
// variable-length field is decoded against an explicit bound before any
// allocation.

// maxIO bounds one read/write payload.
const maxIO = 16 << 20

// Decode bounds.
const (
	maxNameLen  = 1 << 10 // tenant names
	maxPathLen  = 64 << 10
	maxEntries  = 1 << 20 // directory entries / search paths per page
	maxFrameBuf = maxIO + (1 << 20)
)

func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Op))
	b = wire.AppendString(b, req.Tenant)
	b = wire.AppendString(b, req.Path)
	b = wire.AppendString(b, req.Path2)
	b = wire.AppendBytes(b, req.Data)
	b = wire.AppendVarint(b, int64(req.Flag))
	b = wire.AppendUvarint(b, req.Handle)
	b = wire.AppendVarint(b, req.Offset)
	b = wire.AppendVarint(b, int64(req.Whence))
	b = wire.AppendVarint(b, req.Size)
	b = wire.AppendVarint(b, int64(req.N))
	return b
}

// decodeRequest parses one request payload. Data aliases the payload
// slice, which the caller owns for the request's lifetime.
func decodeRequest(payload []byte, req *request) error {
	d := wire.NewDec(payload)
	req.Op = opCode(d.Byte())
	req.Tenant = d.String(maxNameLen)
	req.Path = d.String(maxPathLen)
	req.Path2 = d.String(maxPathLen)
	req.Data = d.Bytes(maxIO)
	req.Flag = d.Int()
	req.Handle = d.Uvarint()
	req.Offset = d.Varint()
	req.Whence = d.Int()
	req.Size = d.Varint()
	req.N = d.Int()
	return d.Close()
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return wire.AppendBool(b, false)
	}
	b = wire.AppendBool(b, true)
	return wire.AppendVarint(b, t.UnixNano())
}

func decodeTime(d *wire.Dec) time.Time {
	if !d.Bool() {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
}

func appendInfo(b []byte, info vfs.Info) []byte {
	b = wire.AppendString(b, info.Name)
	b = wire.AppendUvarint(b, info.Ino)
	b = append(b, byte(info.Type))
	b = wire.AppendVarint(b, info.Size)
	b = appendTime(b, info.ModTime)
	b = wire.AppendString(b, info.Target)
	return b
}

func decodeInfo(d *wire.Dec) vfs.Info {
	var info vfs.Info
	info.Name = d.String(maxPathLen)
	info.Ino = d.Uvarint()
	info.Type = vfs.NodeType(d.Byte())
	info.Size = d.Varint()
	info.ModTime = decodeTime(d)
	info.Target = d.String(maxPathLen)
	return info
}

func appendResponse(b []byte, resp *response) []byte {
	b = wire.AppendBool(b, resp.Err != nil)
	if resp.Err != nil {
		b = wire.AppendError(b, resp.Err)
	}
	b = wire.AppendBytes(b, resp.Data)
	b = appendInfo(b, resp.Info)
	b = wire.AppendUvarint(b, uint64(len(resp.Entries)))
	for _, e := range resp.Entries {
		b = wire.AppendString(b, e.Name)
		b = append(b, byte(e.Type))
		b = wire.AppendUvarint(b, e.Ino)
	}
	b = wire.AppendString(b, resp.Str)
	b = wire.AppendStrings(b, resp.Strs)
	b = wire.AppendUvarint(b, resp.Handle)
	b = wire.AppendVarint(b, int64(resp.N))
	b = wire.AppendVarint(b, resp.Off)
	b = wire.AppendBool(b, resp.EOF)
	return b
}

// encodeResponse encodes resp into buf's storage, first growing it to
// what Data, Strs and the remaining fields while empty or small need
// (32 bytes cover those: 21 single bytes plus a full-width cursor in
// Off), so a page of paths or a file's bytes is encoded without
// regrowth, and a caller that passes the previous result back in
// reuses one buffer.
func encodeResponse(buf []byte, resp *response) []byte {
	if need := 32 + len(resp.Data) + wire.SizeStrings(resp.Strs); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	return appendResponse(buf[:0], resp)
}

// decodeResponse parses one response payload into resp. Data aliases
// the payload; the paths are appended to resp.Strs, so a caller that
// empties it first reuses its storage.
func decodeResponse(payload []byte, resp *response) error {
	d := wire.NewDec(payload)
	if d.Bool() {
		resp.Err = wire.DecodeError(d)
	}
	resp.Data = d.Bytes(maxIO)
	resp.Info = decodeInfo(d)
	if n := d.Count(maxEntries); n > 0 {
		resp.Entries = make([]vfs.DirEntry, 0, n)
		for i := 0; i < n; i++ {
			var e vfs.DirEntry
			e.Name = d.String(maxPathLen)
			e.Type = vfs.NodeType(d.Byte())
			e.Ino = d.Uvarint()
			if d.Err() != nil {
				return d.Err()
			}
			resp.Entries = append(resp.Entries, e)
		}
	}
	resp.Str = d.String(maxPathLen)
	resp.Strs = d.AppendStrings(resp.Strs, maxPathLen, maxEntries)
	resp.Handle = d.Uvarint()
	resp.N = d.Int()
	resp.Off = d.Varint()
	resp.EOF = d.Bool()
	return d.Close()
}
