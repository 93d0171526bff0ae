package gobwire

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

type inner struct {
	Name string
	When time.Time
	N    int
}

type outer struct {
	ID    uint32
	Neg   int
	On    bool
	Items []inner
	Tags  map[string]int
	Names map[string]string
	Raw   []byte
	List  []string
}

// write encodes v the way the two passes of a saver do: count, then
// append into a buffer of exactly the counted size.
func write(t *testing.T, typ *Type, v *outer) []byte {
	t.Helper()
	var w Writer
	w.Count()
	if err := writeOuter(&w, v); err != nil {
		t.Fatal(err)
	}
	n := w.Len()
	buf := typ.AppendHead(make([]byte, 0, typ.Len(n)), n)
	w.Append(buf)
	if err := writeOuter(&w, v); err != nil {
		t.Fatal(err)
	}
	if got := w.Buffer(); len(got) != typ.Len(n) || cap(got) != typ.Len(n) {
		t.Fatalf("wrote %d bytes into %d, sized %d", len(got), cap(got), typ.Len(n))
	}
	return w.Buffer()
}

func writeOuter(w *Writer, v *outer) error {
	s := w.Struct()
	s.Uint(0, uint64(v.ID))
	s.Int(1, int64(v.Neg))
	s.Bool(2, v.On)
	if s.Slice(3, len(v.Items)) {
		for _, it := range v.Items {
			is := w.Struct()
			is.String(0, it.Name)
			if err := is.Time(1, it.When); err != nil {
				return err
			}
			is.Int(2, int64(it.N))
			is.End()
		}
	}
	if v.Tags != nil {
		s.Map(4, len(v.Tags))
		for k, x := range v.Tags {
			w.String(k)
			w.Int(int64(x))
		}
	}
	if v.Names != nil {
		s.Map(5, len(v.Names))
		for k, x := range v.Names {
			w.String(k)
			w.String(x)
		}
	}
	s.Bytes(6, v.Raw)
	if s.Slice(7, len(v.List)) {
		for _, x := range v.List {
			w.String(x)
		}
	}
	s.End()
	return nil
}

// TestWriterMatchesGob: every shape the writer supports — zero and
// non-zero fields, integers at each encoded width, negative ones, long
// and non-ASCII strings, zero and zoned times, zero slice elements, nil,
// empty and one-entry maps — comes out as a fresh gob.Encoder's bytes.
func TestWriterMatchesGob(t *testing.T) {
	typ, err := TypeOf[outer]()
	if err != nil {
		t.Fatal(err)
	}
	zone := time.FixedZone("odd", 5*3600+30*60+17) // seconds in the offset: version-2 encoding
	cases := []outer{
		{},
		{ID: 1, Neg: -1, On: true},
		{ID: math.MaxUint32, Neg: math.MinInt64 >> 1, Raw: []byte{0}},
		{Neg: 1 << 40, Items: []inner{{}, {Name: strings.Repeat("é", 100), N: -300}}},
		{Items: []inner{{When: time.Unix(1e9, 5).UTC()}, {When: time.Unix(-5, 0).In(zone)}, {When: time.Time{}.In(zone)}}},
		{Tags: map[string]int{}, Names: map[string]string{}},
		{Tags: map[string]int{"": 0}, Names: map[string]string{"k": ""}},
		{Tags: map[string]int{"x": 1 << 20}, Names: map[string]string{strings.Repeat("n", 200): "v"}, List: []string{"", "a"}},
	}
	for i, v := range cases {
		var want bytes.Buffer
		if err := gob.NewEncoder(&want).Encode(&v); err != nil {
			t.Fatal(err)
		}
		if got := write(t, typ, &v); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d:\n got %x\nwant %x", i, got, want.Bytes())
		}
	}
}

func TestUintLenMatchesAppendUint(t *testing.T) {
	for _, x := range []uint64{0, 0x7F, 0x80, 0xFF, 0x100, 1<<32 - 1, 1 << 32, math.MaxUint64} {
		if b := appendUint(nil, x); len(b) != uintLen(x) {
			t.Fatalf("%d: %d bytes, UintLen says %d", x, len(b), uintLen(x))
		}
		if got, k, err := readUint(appendUint(nil, x)); err != nil || got != x || k != uintLen(x) {
			t.Fatalf("%d: read back %d in %d bytes, %v", x, got, k, err)
		}
	}
}

// TestReadFullBoundsAllocation: a claim of 1 GiB over a 5-byte input
// allocates in proportion to the input, and an honest claim reads back.
func TestReadFullBoundsAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFull(strings.NewReader("short"), 1<<30)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("a truncated 1 GiB claim allocated %d bytes", d)
	}
	if _, err := ReadFull(strings.NewReader(""), 10); err != io.EOF {
		t.Fatalf("empty input: err = %v, want io.EOF", err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 300_000) // 4.8 MB: grows past the first chunk
	got, err := ReadFull(bytes.NewReader(data), uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Fatalf("read %d bytes (cap %d), %v", len(got), cap(got), err)
	}
}

// TestAppendTimeMatchesMarshalBinary: UTC, local, whole-minute and
// second offsets, the zero time, times before year 1 and far after, and
// an offset with no binary form (its error is MarshalBinary's).
func TestAppendTimeMatchesMarshalBinary(t *testing.T) {
	var times []time.Time
	for _, sec := range []int64{0, 1, -1, 1e9, -62135596800, -62135596801, 1 << 40, -(1 << 40)} {
		for _, loc := range []*time.Location{time.UTC, time.Local, time.FixedZone("m", -7*3600-30*60), time.FixedZone("s", 3600+17), time.FixedZone("n", -59)} {
			times = append(times, time.Unix(sec, 999_999_999).In(loc))
		}
	}
	times = append(times, time.Time{}, time.Time{}.In(time.FixedZone("z", 60)), time.Unix(5, 0).In(time.FixedZone("bad", -60)))
	for _, tm := range times {
		want, wantErr := tm.MarshalBinary()
		got, err := appendTime(nil, tm)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%v: err %v, MarshalBinary's %v", tm, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%v: %x, MarshalBinary %x", tm, got, want)
		}
	}
}
