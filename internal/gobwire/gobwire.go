// Package gobwire writes values in encoding/gob's wire format without
// reflection, for savers whose bytes must stay exactly what a fresh
// gob.Encoder writes while encoding/gob stays the decoder. It also reads
// the length-framed payloads such values travel in.
//
// A fresh encoder sends a top-level value as the descriptor messages of
// its types, then one message: uint(length) | int(type id) | fields.
// The descriptors and the id depend on the order in which the process
// first met each type, so they are not written here: TypeOf takes them
// from encoding/gob itself.
//
// Fields follow gob's rules. A struct field is sent as the delta of its
// number from the last field sent, then its value; a zero value is
// omitted, except a map, which is omitted only when nil; a struct ends
// with a 0. Slice elements and map entries are sent even when zero.
//
// A Writer makes two passes over the same encoding code: a counting
// pass that sizes the output, then an appending pass into a buffer of
// that size, so a large message is written without regrowth.
package gobwire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// Writer writes gob-encoded values; see the package comment. The zero
// Writer is an appending pass onto a nil buffer.
type Writer struct {
	buf      []byte
	n        int // bytes seen by a counting pass
	counting bool
	scratch  [32]byte // GobEncode output of one time.Time
}

// Count starts a counting pass: nothing is written, and Len reports the
// bytes the pass would have written.
func (w *Writer) Count() { w.counting, w.n = true, 0 }

// Append starts an appending pass onto dst.
func (w *Writer) Append(dst []byte) { w.counting, w.buf = false, dst }

// Len returns the bytes the current counting pass has seen.
func (w *Writer) Len() int { return w.n }

// Buffer returns the appending pass's buffer.
func (w *Writer) Buffer() []byte { return w.buf }

// writeUint writes x as gob encodes an unsigned integer: one byte below
// 128, else its byte count, negated, and its big-endian bytes.
func (w *Writer) writeUint(x uint64) {
	if w.counting {
		w.n += uintLen(x)
		return
	}
	w.buf = appendUint(w.buf, x)
}

// Int writes x, a slice element or map key or value, as gob encodes a
// signed integer: a uint whose low bit says whether to complement the
// rest.
func (w *Writer) Int(x int64) { w.writeUint(zigzag(x)) }

// String writes s, a slice element or map key or value, as its length
// and its bytes.
func (w *Writer) String(s string) {
	w.writeUint(uint64(len(s)))
	if w.counting {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

// writeBytes writes b as its length and its bytes.
func (w *Writer) writeBytes(b []byte) {
	w.writeUint(uint64(len(b)))
	if w.counting {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// secondsToUnix is the seconds from January 1, year 1 UTC, the zero
// time.Time, to the Unix epoch.
const secondsToUnix = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 86400

// appendTime appends t.MarshalBinary()'s bytes without its allocation
// (time.Time.AppendBinary arrives in Go 1.24; go.mod says 1.22): a
// version byte, the seconds since the zero time (int64), the
// nanoseconds (int32) and the zone offset in minutes (int16, -1 for
// UTC), then — version 2, an offset that is not whole minutes — its
// seconds (int8).
func appendTime(b []byte, t time.Time) ([]byte, error) {
	version, offsetMin, offsetSec := byte(1), int16(-1), int8(0)
	if t.Location() != time.UTC {
		_, offset := t.Zone()
		if offset%60 != 0 {
			version, offsetSec = 2, int8(offset%60)
		}
		offset /= 60
		if offset < -32768 || offset == -1 || offset > 32767 {
			_, err := t.MarshalBinary() // its error: the offset has no binary form
			return b, err
		}
		offsetMin = int16(offset)
	}
	b = append(b, version)
	b = binary.BigEndian.AppendUint64(b, uint64(t.Unix()+secondsToUnix))
	b = binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
	b = binary.BigEndian.AppendUint16(b, uint16(offsetMin))
	if version == 2 {
		b = append(b, byte(offsetSec))
	}
	return b, nil
}

// Struct starts writing one struct value's fields.
func (w *Writer) Struct() Struct { return Struct{w: w, last: -1} }

// Struct writes the fields of one struct value in increasing field
// order, omitting zero values as gob does, and End closes it. Field
// numbers count the struct's exported fields from 0.
type Struct struct {
	w    *Writer
	last int
}

func (s *Struct) field(n int) {
	s.w.writeUint(uint64(n - s.last))
	s.last = n
}

// Uint writes field n, an unsigned integer.
func (s *Struct) Uint(n int, x uint64) {
	if x != 0 {
		s.field(n)
		s.w.writeUint(x)
	}
}

// Int writes field n, a signed integer.
func (s *Struct) Int(n int, x int64) {
	if x != 0 {
		s.field(n)
		s.w.Int(x)
	}
}

// Bool writes field n, a bool.
func (s *Struct) Bool(n int, x bool) {
	if x {
		s.field(n)
		s.w.writeUint(1)
	}
}

// String writes field n, a string.
func (s *Struct) String(n int, x string) {
	if x != "" {
		s.field(n)
		s.w.String(x)
	}
}

// Bytes writes field n, a []byte.
func (s *Struct) Bytes(n int, x []byte) {
	if len(x) > 0 {
		s.field(n)
		s.w.writeBytes(x)
	}
}

// Time writes field n, a time.Time, as gob writes a GobEncoder: the
// length and bytes of t.GobEncode(), which are t.MarshalBinary()'s. gob
// omits it when it is the zero Value, which for a time.Time is the zero
// instant in UTC.
func (s *Struct) Time(n int, t time.Time) error {
	if t == (time.Time{}) {
		return nil
	}
	b, err := appendTime(s.w.scratch[:0], t)
	if err != nil {
		return err
	}
	s.field(n)
	s.w.writeBytes(b)
	return nil
}

// Slice writes the head of field n, a slice of l elements, and reports
// whether the caller is to write the elements next with the Writer's
// methods (a struct element through Writer.Struct). An empty slice is
// omitted.
func (s *Struct) Slice(n, l int) bool {
	if l == 0 {
		return false
	}
	s.field(n)
	s.w.writeUint(uint64(l))
	return true
}

// Map writes the head of field n, a non-nil map of l entries; the
// caller writes each key and then its value with the Writer's methods.
// A nil map is omitted by not calling Map. An empty map is sent.
func (s *Struct) Map(n, l int) {
	s.field(n)
	s.w.writeUint(uint64(l))
}

// End closes the struct.
func (s *Struct) End() { s.w.writeUint(0) }

// uintLen returns the bytes gob encodes x in.
func uintLen(x uint64) int {
	if x <= 0x7F {
		return 1
	}
	return 1 + 8 - bits.LeadingZeros64(x)>>3
}

// appendUint appends x in gob's unsigned integer encoding.
func appendUint(dst []byte, x uint64) []byte {
	if x <= 0x7F {
		return append(dst, byte(x))
	}
	n := 8 - bits.LeadingZeros64(x)>>3
	dst = append(dst, byte(-n))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], x)
	return append(dst, b[8-n:]...)
}

func zigzag(x int64) uint64 {
	if x < 0 {
		return uint64(^x<<1) | 1
	}
	return uint64(x << 1)
}

// Type is one top-level type as a fresh gob.Encoder sends it: the
// descriptor messages that define the type and the id the value message
// carries.
type Type struct {
	desc []byte
	id   int64
}

// TypeOf returns T's descriptors and id, read from what a fresh
// gob.Encoder writes for a zero T. gob numbers a type, process-wide, the
// first time any encoder or decoder meets it, so the first TypeOf of a T
// numbers it just as the first Encode of a T would: call it where that
// Encode used to happen (once, e.g. through sync.OnceValues) to keep a
// process's numbering, and with it the bytes of what it saves.
func TypeOf[T any]() (*Type, error) {
	var buf bytes.Buffer
	var zero T
	if err := gob.NewEncoder(&buf).Encode(&zero); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	for off := 0; off < len(b); {
		n, k, err := readUint(b[off:])
		if err != nil || n > uint64(len(b)-off-k) {
			return nil, fmt.Errorf("gobwire: malformed message in gob's encoding of %T", zero)
		}
		msg := b[off+k : off+k+int(n)]
		id, _, err := readUint(msg)
		if err != nil {
			return nil, fmt.Errorf("gobwire: message without a type id in gob's encoding of %T", zero)
		}
		if id&1 == 0 { // a non-negative id: the value message
			return &Type{desc: b[:off:off], id: int64(id >> 1)}, nil
		}
		off += k + int(n)
	}
	return nil, fmt.Errorf("gobwire: no value message in gob's encoding of %T", zero)
}

// Len returns the bytes a fresh encoder writes for a value whose fields
// take n bytes: descriptors, message length, type id and fields.
func (t *Type) Len(n int) int {
	m := uintLen(zigzag(t.id)) + n
	return len(t.desc) + uintLen(uint64(m)) + m
}

// AppendHead appends what a fresh encoder writes before a value's
// fields when they take n bytes: the descriptors, the message length
// and the type id. The fields follow.
func (t *Type) AppendHead(dst []byte, n int) []byte {
	dst = append(dst, t.desc...)
	id := zigzag(t.id)
	dst = appendUint(dst, uint64(uintLen(id)+n))
	return appendUint(dst, id)
}

// readUint decodes one gob unsigned integer from the front of b,
// returning it and the bytes it took.
func readUint(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	if b[0] <= 0x7F {
		return uint64(b[0]), 1, nil
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0, io.ErrUnexpectedEOF
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n, nil
}

// firstChunk is the most ReadFull allocates before bytes arrive.
const firstChunk = 1 << 20

// ReadFull reads exactly n bytes from r. The buffer grows as the bytes
// arrive — from at most 1 MiB, doubling, up to n — so a length field
// that claims more than the input holds costs memory in proportion to
// the input, not to the claim. Errors are io.ReadFull's: io.EOF when no
// byte was read, io.ErrUnexpectedEOF when some were.
func ReadFull(r io.Reader, n uint64) ([]byte, error) {
	if n > uint64(maxInt) {
		return nil, errors.New("gobwire: length exceeds the address space")
	}
	buf := make([]byte, 0, min(int(n), firstChunk))
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*cap(buf), int(n)))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

const maxInt = int(^uint(0) >> 1)
