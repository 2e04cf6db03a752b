package checkpoint

import (
	"cmp"
	"fmt"
	"slices"
)

// Codec runs one statement of a component's saved fields in either
// direction (DESIGN.md §4e). Saving, each accessor appends the value it
// points at; restoring, it overwrites that value with the decoded one. So a
// component states its fields once, in payload order, in one method taking
// a *Codec: SaveState runs it on the live component, and RestoreState runs
// it on a temporary, validates the temporary and returns a commit that
// installs it. Fail records a refusal while restoring and does nothing
// while saving — the live state is written as it is, and restore is the
// side that judges it.
type Codec struct {
	w       *Writer
	r       *Reader
	commits []func()
}

// Saving returns a codec that appends to w.
func Saving(w *Writer) *Codec { return &Codec{w: w} }

// Restoring returns a codec that decodes from r.
func Restoring(r *Reader) *Codec { return &Codec{r: r} }

// Restores reports whether c decodes.
func (c *Codec) Restores() bool { return c.r != nil }

// Err returns the first decode error, or nil (always nil while saving).
func (c *Codec) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.err
}

// Fail records a restore refusal (see Reader.Fail); saving, it does nothing.
func (c *Codec) Fail(format string, args ...any) {
	if c.r != nil {
		c.r.Fail(format, args...)
	}
}

// code runs one Writer/Reader accessor pair in c's direction.
func code[T any](c *Codec, p *T, write func(T), read func() T) {
	if c.r != nil {
		*p = read()
	} else {
		write(*p)
	}
}

func (c *Codec) U64(p *uint64)     { code(c, p, c.w.U64, c.r.U64) }
func (c *Codec) I64(p *int64)      { code(c, p, c.w.I64, c.r.I64) }
func (c *Codec) Int(p *int)        { code(c, p, c.w.Int, c.r.Int) }
func (c *Codec) F64(p *float64)    { code(c, p, c.w.F64, c.r.F64) }
func (c *Codec) Bool(p *bool)      { code(c, p, c.w.Bool, c.r.Bool) }
func (c *Codec) Uvarint(p *uint64) { code(c, p, c.w.Uvarint, c.r.Uvarint) }
func (c *Codec) Varint(p *int64)   { code(c, p, c.w.Varint, c.r.Varint) }

// Len codes a collection length: saving, it writes n and returns it;
// restoring, it returns the decoded length (see Reader.Count).
func (c *Codec) Len(n int) int {
	if c.r != nil {
		return c.r.Count()
	}
	c.w.Count(n)
	return n
}

// Part codes a component that checkpoints itself. Restoring, the
// component decodes into its own temporaries, and its commit waits for
// Commit.
func (c *Codec) Part(sv Saver) {
	if c.r == nil {
		sv.SaveState(c.w)
		return
	}
	if c.r.err != nil {
		return
	}
	commit, err := sv.RestoreState(c.r)
	if err != nil {
		if c.r.err == nil {
			c.r.err = err
		}
		return
	}
	c.commits = append(c.commits, commit)
}

// Commit installs every Part restored through c, in payload order.
func (c *Codec) Commit() {
	for _, commit := range c.commits {
		commit()
	}
}

// U8 codes a one-byte value: an enumeration or a word mask.
func U8[T ~uint8](c *Codec, p *T) { v := uint8(*p); code(c, &v, c.w.U8, c.r.U8); *p = T(v) }

// Word codes a named 64-bit value, such as a byte mask.
func Word[T ~uint64 | ~int64](c *Codec, p *T) { v := uint64(*p); c.U64(&v); *p = T(v) }

// Words codes every element of s, with no length prefix: the bulk arrays
// (cache tags, dirty masks, LRU stamps) whose length the configuration
// fixes and which stay whole slices rather than per-field statements.
func Words[T ~uint64 | ~int64](c *Codec, s []T) {
	if c.r != nil {
		for i := range s {
			s[i] = T(c.r.U64())
		}
		return
	}
	for _, v := range s {
		c.w.U64(uint64(v))
	}
}

// Slice codes a length-prefixed slice, each element stated by each.
// Restoring, it decodes into a fresh slice, so the caller's backing array
// is never written; after an error it returns only the elements decoded
// before it.
func Slice[T any](c *Codec, s []T, each func(*T)) []T {
	n := c.Len(len(s))
	if c.r != nil {
		s = make([]T, n)
	}
	for i := range s {
		if c.Err() != nil {
			return s[:i]
		}
		each(&s[i])
	}
	return s
}

// Map codes a map as its length and its entries in ascending key order,
// each entry stated by each. Restoring, the entries go into m (empty), and
// a key not above its predecessor fails naming what (formatted with args):
// a map has one accepted encoding, and a repeated key cannot replace an
// earlier entry.
func Map[K cmp.Ordered, V any](c *Codec, m map[K]V, each func(*K, *V), what string, args ...any) {
	var keys []K
	if c.r == nil {
		keys = make([]K, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	n := c.Len(len(keys))
	var prev K
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		var v V
		if c.r == nil {
			k, v = keys[i], m[keys[i]]
		}
		each(&k, &v)
		if c.r == nil {
			continue
		}
		if i > 0 && k <= prev {
			c.Fail("%s %#x after %#x, want ascending", fmt.Sprintf(what, args...), k, prev)
		}
		m[k] = v
		prev = k
	}
}
