package core

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMaskGranularity(t *testing.T) {
	cases := []struct {
		m    Mask
		want int
	}{
		{0x00, 0}, {0x01, 1}, {0x80, 1}, {0x81, 2}, {0xFF, 8}, {0x0F, 4}, {0xAA, 4},
	}
	for _, c := range cases {
		if got := c.m.Granularity(); got != c.want {
			t.Errorf("Granularity(%s) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestMaskFraction(t *testing.T) {
	if f := Mask(0x01).Fraction(); f != 0.125 {
		t.Errorf("Fraction(1 bit) = %v, want 0.125", f)
	}
	if f := FullMask.Fraction(); f != 1.0 {
		t.Errorf("Fraction(full) = %v, want 1", f)
	}
}

func TestMaskString(t *testing.T) {
	cases := []struct {
		m    Mask
		want string
	}{
		{0x81, "10000001b"}, {0xFF, "11111111b"}, {0x01, "00000001b"}, {0xC0, "11000000b"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String(%#x) = %q, want %q", uint8(c.m), got, c.want)
		}
	}
}

func TestMaskBit(t *testing.T) {
	m := Mask(0x81)
	if !m.Bit(0) || !m.Bit(7) {
		t.Error("bits 0 and 7 should be set in 0x81")
	}
	if m.Bit(1) || m.Bit(6) {
		t.Error("bits 1 and 6 should be clear in 0x81")
	}
	if m.Bit(-1) || m.Bit(8) {
		t.Error("out-of-range Bit must be false")
	}
}

func TestCovers(t *testing.T) {
	if !FullMask.Covers(0x81) {
		t.Error("full mask must cover everything")
	}
	if !Mask(0x81).Covers(0x01) {
		t.Error("0x81 covers 0x01")
	}
	if Mask(0x81).Covers(0x02) {
		t.Error("0x81 does not cover 0x02")
	}
	if !Mask(0x81).Covers(0) {
		t.Error("any mask covers the empty need")
	}
}

// Property: Covers is exactly subset inclusion of set bits.
func TestCoversIsSubsetProperty(t *testing.T) {
	f := func(m, need uint8) bool {
		got := Mask(m).Covers(Mask(need))
		want := need&^m == 0
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Union covers both operands and nothing more.
func TestUnionProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		u := Mask(a).Union(Mask(b))
		if !u.Covers(Mask(a)) || !u.Covers(Mask(b)) {
			return false
		}
		return u.Granularity() == bits.OnesCount8(a|b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteMaskWordMask(t *testing.T) {
	// Dirty byte 0 of word 0 and byte 7 of word 7.
	b := ByteMask(1) | ByteMask(1)<<63
	if got := b.WordMask(); got != 0x81 {
		t.Errorf("WordMask = %s, want 10000001b", got)
	}
	if got := FullByteMask.WordMask(); got != FullMask {
		t.Errorf("WordMask(full) = %s, want full", got)
	}
	if got := ByteMask(0).WordMask(); got != 0 {
		t.Errorf("WordMask(0) = %s, want 0", got)
	}
}

func TestByteMaskChipMask(t *testing.T) {
	// A store of the full word 3 dirties every byte position exactly once:
	// every chip must be accessed under SDS even though only one word is
	// dirty — the asymmetry the paper exploits (Section 3).
	b := StoreBytes(3*BytesPerWord, BytesPerWord)
	if got := b.ChipMask(); got != FullMask {
		t.Errorf("ChipMask(one full word) = %s, want full", got)
	}
	if got := b.WordMask(); got.Granularity() != 1 {
		t.Errorf("WordMask(one full word) granularity = %d, want 1", got.Granularity())
	}
	// A 1-byte store at byte 2 of word 5 touches only chip 2.
	b = StoreBytes(5*BytesPerWord+2, 1)
	if got := b.ChipMask(); got != 0x04 {
		t.Errorf("ChipMask(1B store) = %s, want 00000100b", got)
	}
}

// Property: word mask granularity >= ceil(dirtyBytes/8) and chip mask is
// nonzero iff byte mask is nonzero.
func TestProjectionProperties(t *testing.T) {
	f := func(raw uint64) bool {
		b := ByteMask(raw)
		wm, cm := b.WordMask(), b.ChipMask()
		if (b == 0) != wm.IsZero() || (b == 0) != cm.IsZero() {
			return false
		}
		db := b.DirtyBytes()
		minWords := (db + BytesPerWord - 1) / BytesPerWord
		if wm.Granularity() < minWords && db > 0 {
			// Can't fit db dirty bytes in fewer than ceil(db/8) words.
			return false
		}
		// Total selected cells must be able to hold all dirty bytes.
		return wm.Granularity()*BytesPerWord >= db && cm.Granularity()*WordsPerLine >= db
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a byte is dirty only if both its word is in the word mask and
// its chip position is in the chip mask.
func TestProjectionCoverageProperty(t *testing.T) {
	f := func(raw uint64) bool {
		b := ByteMask(raw)
		wm, cm := b.WordMask(), b.ChipMask()
		for w := 0; w < WordsPerLine; w++ {
			for k := 0; k < BytesPerWord; k++ {
				if b&(ByteMask(1)<<(uint(w)*8+uint(k))) != 0 {
					if !wm.Bit(w) || !cm.Bit(k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreBytes(t *testing.T) {
	if StoreBytes(0, 8) != 0xFF {
		t.Error("8B store at 0 should dirty bytes 0-7")
	}
	if StoreBytes(0, 64) != FullByteMask {
		t.Error("64B store should dirty the full line")
	}
	if StoreBytes(60, 8) != ByteMask(0xF)<<60 {
		t.Error("store spilling past line end must be clipped")
	}
	if StoreBytes(-1, 4) != 0 || StoreBytes(64, 4) != 0 || StoreBytes(0, 0) != 0 {
		t.Error("invalid stores must produce the zero mask")
	}
	if StoreBytes(0, 100) != FullByteMask {
		t.Error("oversized store clips to full line")
	}
}

func TestStoreBytesProperty(t *testing.T) {
	f := func(off, size uint8) bool {
		o, s := int(off%70), int(size%70)
		m := StoreBytes(o, s)
		if o >= LineBytes || s == 0 {
			return m == 0
		}
		want := s
		if o+s > LineBytes {
			want = LineBytes - o
		}
		return m.DirtyBytes() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
