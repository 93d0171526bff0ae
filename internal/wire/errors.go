package wire

import (
	"errors"

	"hacfs/internal/vfs"
)

// Typed errors over the wire. A bare message string loses the error's
// type, so a quota rejection or a shard lost mid-query would reach
// clients as anonymous text instead of a *vfs.PathError they can
// errors.Is against. Every service carries errors in one payload shape:
//
//	op(string) path(string) code(byte) message(string)
//
// op and path are the *vfs.PathError fields ("" when the error is not
// one), code names a vfs sentinel (0 = none survives the trip; the
// message alone is kept), message is the text under the PathError.

// TypeErr is the frame type of an error response, reserved in every
// protocol's frame-type space: its payload is one encoded error and it
// always ends the response stream.
const TypeErr uint8 = 0

// Field bounds for a decoded error.
const (
	maxErrPath = 64 << 10
	maxErrMsg  = 16 << 10
)

// sentinels is the one sentinel↔code table: an error's code is the
// 1-based index of the first entry it matches. The serving-layer
// conditions come first because they wrap causes (a lost shard carries
// its last replica error), and the cause must not win the code.
var sentinels = [...]error{
	vfs.ErrShardUnavailable,
	vfs.ErrShuttingDown,
	vfs.ErrBackpressure,
	vfs.ErrQuotaExceeded,
	vfs.ErrNotExist,
	vfs.ErrExist,
	vfs.ErrNotDir,
	vfs.ErrIsDir,
	vfs.ErrNotEmpty,
	vfs.ErrInvalid,
	vfs.ErrLoop,
	vfs.ErrCrossMount,
	vfs.ErrClosed,
	vfs.ErrReadOnly,
	vfs.ErrWriteOnly,
	vfs.ErrBusy,
	vfs.ErrUnsupported,
}

func codeOf(err error) byte {
	for i, sentinel := range sentinels {
		if errors.Is(err, sentinel) {
			return byte(i + 1)
		}
	}
	return 0
}

// RemoteError is a failure the peer's handler reported, as opposed to
// a transport failure: the server itself answered, so retrying another
// replica of the same data cannot help. It unwraps to the vfs sentinel
// its wire code named, if any, so errors.Is works on the reconstructed
// error without losing the server's detail text.
type RemoteError struct {
	Msg      string
	sentinel error
}

func (e *RemoteError) Error() string { return e.Msg }
func (e *RemoteError) Unwrap() error { return e.sentinel }

func clip(s string, max int) string {
	if len(s) > max {
		return s[:max]
	}
	return s
}

// AppendError appends err in the typed-error payload shape. Fields are
// clipped to the bounds DecodeError enforces, so an over-long message
// degrades to a truncated one rather than an undecodable response.
func AppendError(b []byte, err error) []byte {
	var op, path string
	inner := err
	var pe *vfs.PathError
	if errors.As(err, &pe) {
		op, path, inner = pe.Op, pe.Path, pe.Err
	}
	b = AppendString(b, clip(op, maxErrPath))
	b = AppendString(b, clip(path, maxErrPath))
	b = append(b, codeOf(err))
	return AppendString(b, clip(inner.Error(), maxErrMsg))
}

// DecodeError reconstructs an error appended by AppendError: the
// *vfs.PathError shape when op or path travelled, wrapping the sentinel
// itself when the message is the sentinel's own text and a
// *RemoteError otherwise. A malformed payload leaves its error in d.
func DecodeError(d *Dec) error {
	op := d.String(maxErrPath)
	path := d.String(maxErrPath)
	code := int(d.Byte())
	msg := d.String(maxErrMsg)
	if d.Err() != nil {
		return d.Err()
	}
	var inner error = &RemoteError{Msg: msg}
	if code >= 1 && code <= len(sentinels) {
		if s := sentinels[code-1]; msg == s.Error() {
			inner = s
		} else {
			inner = &RemoteError{Msg: msg, sentinel: s}
		}
	}
	if op == "" && path == "" {
		return inner
	}
	return &vfs.PathError{Op: op, Path: path, Err: inner}
}

// frameError decodes the error a TypeErr frame carries.
func frameError(f Frame) error {
	d := NewDec(f.Payload)
	err := DecodeError(d)
	if cerr := d.Close(); cerr != nil {
		return cerr
	}
	return err
}
