// Package checkpoint is the binary encoding layer for warmup
// checkpointing (DESIGN.md §4e). Each stateful simulator component states
// its saved fields once, through a Codec that writes them to a Writer or
// reads them back from a Reader; the sim layer frames the concatenated
// payloads with a magic number, format version, model version, warmup
// fingerprint, and CRC32 trailer.
//
// The encoding is deliberately dumb: fixed-width little-endian integers,
// IEEE-754 bit-pattern floats, length-prefixed byte strings. Determinism
// matters more than density — two checkpoints of identical simulator
// state must be byte-identical, so components serialize map contents in
// sorted key order and ring buffers in canonical rotation. The one
// density concession is the Uvarint/Varint pair, added for the trace
// format's footer index, whose per-chunk entries would otherwise dominate
// small captures; varints are just as deterministic (one canonical
// encoding per value, enforced on decode).
//
// The Reader carries a sticky error: every accessor returns the zero
// value once any read has failed, so decode code can run straight through
// and check Err once. Restores are transactional at the component level —
// decode into temporaries, return a commit closure, and only mutate live
// state after every component has decoded cleanly — so a corrupt
// checkpoint can never leave a half-restored simulator behind.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every decode failure so callers can
// distinguish "bad checkpoint bytes" from their own errors.
var ErrCorrupt = errors.New("corrupt checkpoint")

// Saver is the component checkpointing contract: SaveState appends the
// component's dynamic state; RestoreState decodes the same bytes into
// temporaries and returns a commit closure that installs them. A failed
// decode returns an error and MUST leave the component untouched — the
// caller runs every component's decode before any commit, so a corrupt
// checkpoint aborts with the live simulator intact.
type Saver interface {
	SaveState(w *Writer)
	RestoreState(r *Reader) (commit func(), err error)
}

// maxCount bounds every length prefix the Reader will accept. The
// largest real collections in a checkpoint are cache line arrays (a few
// hundred thousand entries); anything past this is a corrupt length about
// to drive a giant allocation.
const maxCount = 1 << 28

// Writer accumulates a checkpoint payload. The zero value is ready to
// use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow preallocates capacity for at least n more bytes, so a caller that
// knows the rough payload size (the sim layer: cache line arrays dominate,
// ~1.7 MB on the default geometry) avoids the append-doubling copies.
func (w *Writer) Grow(n int) {
	if rem := cap(w.buf) - len(w.buf); rem < n {
		buf := make([]byte, len(w.buf), len(w.buf)+n)
		copy(buf, w.buf)
		w.buf = buf
	}
}

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) Int(v int)    { w.I64(int64(v)) }
func (w *Writer) F64(v float64) {
	w.U64(math.Float64bits(v))
}

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Uvarint writes v in the canonical unsigned LEB128 form used by
// encoding/binary.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint writes v zig-zag encoded (encoding/binary's signed varint).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Count writes a collection length prefix.
func (w *Writer) Count(n int) { w.U64(uint64(n)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

// Reader decodes a checkpoint payload with a sticky error: after the
// first failure every accessor returns the zero value and Err reports the
// original cause.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps payload for decoding.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err (wrapped in ErrCorrupt) as the sticky error if none is
// set yet. Component decoders use it for semantic validation ("count out
// of range", "unknown tag kind").
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Done reports whether the payload was fully consumed without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.Fail("truncated at offset %d (want %d bytes, have %d)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) Int() int     { return int(r.I64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("bad bool byte %d", v)
		return false
	}
}

// Uvarint reads an unsigned varint. Over-long (non-canonical) encodings
// and values overflowing 64 bits fail, so every value has exactly one
// accepted byte form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint at offset %d", r.off)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Fail("non-canonical uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint with the same canonical-form
// checks as Uvarint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad varint at offset %d", r.off)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.Fail("non-canonical varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads a collection length prefix and validates it against both
// the global sanity bound and the remaining payload (at least one byte
// per element), so corrupt lengths fail before any allocation.
func (r *Reader) Count() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > maxCount || int(n) > len(r.buf)-r.off {
		r.Fail("count %d out of range at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
