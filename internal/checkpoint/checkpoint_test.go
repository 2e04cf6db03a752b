package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// record is one value of every type the codec carries.
type record struct {
	A uint8
	C uint64
	D int64
	E int
	F uint64 // an F64 bit pattern, so NaN payloads survive the comparison
	G bool
	H uint64
	I int64
	S string
}

func (v record) write(w *Writer) {
	w.U8(v.A)
	w.U64(v.C)
	w.I64(v.D)
	w.Int(v.E)
	w.F64(math.Float64frombits(v.F))
	w.Bool(v.G)
	w.Uvarint(v.H)
	w.Varint(v.I)
	w.Count(len(v.S))
	w.String(v.S)
}

func read(r *Reader) (v record, count int) {
	v.A = r.U8()
	v.C = r.U64()
	v.D = r.I64()
	v.E = r.Int()
	v.F = math.Float64bits(r.F64())
	v.G = r.Bool()
	v.H = r.Uvarint()
	v.I = r.Varint()
	count = r.Count()
	v.S = r.String()
	return v, count
}

func (v record) equal(o record) bool {
	return v.A == o.A && v.C == o.C && v.D == o.D && v.E == o.E && v.F == o.F &&
		v.G == o.G && v.H == o.H && v.I == o.I && v.S == o.S
}

// TestRoundTrip: every Writer/Reader accessor pair returns what was
// written, the payload is consumed exactly, and equal values encode to
// equal bytes.
func TestRoundTrip(t *testing.T) {
	check := func(v record) bool {
		var w, again Writer
		v.write(&w)
		v.write(&again)
		if !bytes.Equal(w.Bytes(), again.Bytes()) {
			return false
		}
		r := NewReader(w.Bytes())
		got, count := read(r)
		return r.Done() == nil && got.equal(v) && count == len(v.S)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		for _, v := range []record{
			{F: math.Float64bits(f)},
			{A: math.MaxUint8, C: math.MaxUint64, D: math.MinInt64, E: math.MinInt64,
				F: math.Float64bits(f), G: true, H: math.MaxUint64, I: math.MinInt64, S: "pradram"},
			{D: math.MaxInt64, E: math.MaxInt64, F: math.Float64bits(f), H: 127, I: math.MaxInt64, S: strings.Repeat("7", 300)},
		} {
			if !check(v) {
				t.Errorf("round trip failed for %+v", v)
			}
		}
	}
}

// TestGrowKeepsContents: Grow only reserves capacity.
func TestGrowKeepsContents(t *testing.T) {
	var w Writer
	w.String("head")
	before := bytes.Clone(w.Bytes())
	w.Grow(1 << 12)
	if !bytes.Equal(w.Bytes(), before) || cap(w.Bytes())-len(w.Bytes()) < 1<<12 {
		t.Errorf("Grow changed the payload or reserved too little: %d bytes, cap %d", len(w.Bytes()), cap(w.Bytes()))
	}
}

// TestStickyError: after a short read every accessor returns its zero value,
// nothing advances, and Err and Done keep reporting the first cause, which
// wraps ErrCorrupt.
func TestStickyError(t *testing.T) {
	var w Writer
	record{A: 9, C: 5, S: "later"}.write(&w)
	r := NewReader(w.Bytes()[:3]) // the U8, then a quarter of a U64
	if got := r.U8(); got != 9 || r.Err() != nil {
		t.Fatalf("U8 = %d, err %v before the short read", got, r.Err())
	}
	if got := r.U64(); got != 0 || r.Err() == nil {
		t.Fatalf("short U64 = %d, err %v", got, r.Err())
	}
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) || !strings.Contains(first.Error(), "truncated at offset 1") {
		t.Errorf("first cause %q: want a truncation at offset 1 wrapping ErrCorrupt", first)
	}
	if got, count := read(r); !got.equal(record{}) || count != 0 {
		t.Errorf("accessors after a failure returned %+v / count %d, want zero values", got, count)
	}
	r.Fail("a later complaint")
	if r.Err() != first || r.Done() != first {
		t.Errorf("Err = %v, Done = %v; both must stay %v", r.Err(), r.Done(), first)
	}
}

// TestRejects: each malformed encoding fails, naming what was wrong, with an
// error that wraps ErrCorrupt.
func TestRejects(t *testing.T) {
	count := func(n uint64) []byte {
		var w Writer
		w.U64(n)
		return append(w.Bytes(), 1, 2, 3) // three bytes left after the prefix
	}
	for _, c := range []struct {
		name    string
		payload []byte
		read    func(*Reader)
		want    string
	}{
		{"over-long uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "non-canonical uvarint"},
		{"over-long varint", []byte{0x82, 0x00}, func(r *Reader) { r.Varint() }, "non-canonical varint"},
		{"uvarint past 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "bad uvarint"},
		{"varint past 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Varint() }, "bad varint"},
		{"unterminated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "bad uvarint"},
		{"empty varint", nil, func(r *Reader) { r.Varint() }, "bad varint"},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }, "bad bool byte 2"},
		{"count past the payload", count(4), func(r *Reader) { r.Count() }, "count 4 out of range"},
		{"count past the sanity bound", count(maxCount + 1), func(r *Reader) { r.Count() }, "out of range"},
		{"count overflowing int", count(math.MaxUint64), func(r *Reader) { r.Count() }, "out of range"},
		{"string longer than the payload", count(4), func(r *Reader) { _ = r.String() }, "count 4 out of range"},
		{"short u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }, "truncated at offset 0 (want 8 bytes, have 3)"},
	} {
		r := NewReader(c.payload)
		c.read(r)
		if err := r.Err(); err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one wrapping ErrCorrupt and containing %q", c.name, err, c.want)
		}
	}
	// The largest count the payload can back is accepted.
	if r := NewReader(count(3)); r.Count() != 3 || r.Err() != nil {
		t.Errorf("count 3 with three bytes left: err %v", r.Err())
	}
}

// TestDoneRejectsTrailingBytes: a decoder that stops early has not read the
// checkpoint it was given.
func TestDoneRejectsTrailingBytes(t *testing.T) {
	var w Writer
	w.U64(7)
	w.U8(1)
	r := NewReader(w.Bytes())
	if r.U64() != 7 {
		t.Fatal("U64 round trip")
	}
	if err := r.Done(); err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("Done with a byte left = %v, want the trailing-bytes error", err)
	}
	if !r.Bool() || r.Done() != nil {
		t.Errorf("Done after the last byte = %v, want nil", r.Done())
	}
}
