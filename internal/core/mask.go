package core

import "math/bits"

// WordsPerLine is the number of 8-byte words in a 64-byte cache line. Each
// word maps to one group of two MATs inside a DRAM bank (Section 4.1.2), so
// a PRA mask has exactly one bit per word.
const WordsPerLine = 8

// BytesPerWord is the width of one word segment of a cache line. Each byte
// of a word is stored in a different x8 chip of the rank (Figure 1).
const BytesPerWord = 8

// LineBytes is the cache-line size used throughout the system.
const LineBytes = WordsPerLine * BytesPerWord

// Mask is an 8-bit PRA mask. Bit i selects the group of two MATs that holds
// word i of every cache line in the row. FullMask activates the whole row;
// the zero Mask selects nothing and is never a legal activation mask.
type Mask uint8

// FullMask selects all eight MAT groups, i.e. a conventional full-row
// activation.
const FullMask Mask = 0xFF

// Bit returns whether word i (0..7) is selected by the mask.
func (m Mask) Bit(i int) bool {
	if i < 0 || i >= WordsPerLine {
		return false
	}
	return m&(1<<uint(i)) != 0
}

// Granularity returns the number of selected word groups (0..8). A value of
// g means a g/8 partial row activation.
func (m Mask) Granularity() int { return bits.OnesCount8(uint8(m)) }

// Fraction returns the activated fraction of the row, Granularity()/8.
func (m Mask) Fraction() float64 { return float64(m.Granularity()) / WordsPerLine }

// IsFull reports whether the mask selects the entire row.
func (m Mask) IsFull() bool { return m == FullMask }

// IsZero reports whether the mask selects nothing.
func (m Mask) IsZero() bool { return m == 0 }

// Covers reports whether every word selected by need is also selected by m.
// It is the row-buffer-hit condition for a write request against a partially
// opened row: the write hits only if its dirty words are all activated.
func (m Mask) Covers(need Mask) bool { return need&^m == 0 }

// Union returns the OR-merge of two masks. The memory controller ORs the
// masks of all queued requests heading to the same row before issuing the
// activation (Section 5.2.1).
func (m Mask) Union(o Mask) Mask { return m | o }

// String renders the mask in the paper's bit-string notation, e.g.
// "10000001b" for words 0 and 7 (bit 7 printed first).
func (m Mask) String() string {
	var b [WordsPerLine + 1]byte
	for i := 0; i < WordsPerLine; i++ {
		if m.Bit(WordsPerLine - 1 - i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	b[WordsPerLine] = 'b'
	return string(b[:])
}

// ByteMask is a 64-bit per-byte dirty mask for one cache line: bit
// (8*word + byte) is set when that byte has been stored to since the line
// was last clean. The cache hierarchy maintains ByteMasks; PRA and SDS each
// project them differently.
type ByteMask uint64

// FullByteMask marks every byte of the line dirty.
const FullByteMask ByteMask = ^ByteMask(0)

// WordMask projects the byte mask to the PRA word mask: word i is dirty if
// any of its eight bytes is dirty. This is the FGD information a dirty L2
// eviction delivers to the memory controller (Section 4.1.4).
func (b ByteMask) WordMask() Mask {
	var m Mask
	for w := 0; w < WordsPerLine; w++ {
		if b&(ByteMask(0xFF)<<(uint(w)*BytesPerWord)) != 0 {
			m |= 1 << uint(w)
		}
	}
	return m
}

// ChipMask projects the byte mask to the SDS chip-access mask: chip k (byte
// position k of every word) must be accessed if byte k of any word is dirty.
// Used for the Section 3 coverage comparison against Skinflint DRAM.
func (b ByteMask) ChipMask() Mask {
	var m Mask
	for k := 0; k < BytesPerWord; k++ {
		for w := 0; w < WordsPerLine; w++ {
			if b&(ByteMask(1)<<(uint(w)*BytesPerWord+uint(k))) != 0 {
				m |= 1 << uint(k)
				break
			}
		}
	}
	return m
}

// DirtyBytes returns the number of dirty bytes in the line.
func (b ByteMask) DirtyBytes() int { return bits.OnesCount64(uint64(b)) }

// StoreBytes returns the byte mask touched by a store of size bytes at
// offset off within the line. Stores that spill past the end of the line are
// clipped; size <= 0 yields the zero mask.
func StoreBytes(off, size int) ByteMask {
	if off < 0 || off >= LineBytes || size <= 0 {
		return 0
	}
	if off+size > LineBytes {
		size = LineBytes - off
	}
	if size >= 64 {
		return FullByteMask
	}
	return ((ByteMask(1) << uint(size)) - 1) << uint(off)
}
