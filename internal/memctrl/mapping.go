// Package memctrl implements the paper's memory controller (Section 5.1.2):
// FR-FCFS scheduling with separate 64-entry read/write queues per channel
// (48/16 write-drain watermarks), read-over-write priority, a four-access
// cap on open-row reuse, row- and line-interleaved address mappings, the
// relaxed and restricted close-page policies with precharge power-down, and
// the row-activation schemes under study: conventional full-row activation
// (baseline), fine-grained activation (FGA), Half-DRAM, PRA, and the
// Half-DRAM + PRA combination. PRA-specific behaviour — partial write
// activations from FGD masks, OR-merging of queued same-row write masks,
// false-row-buffer-hit handling, and dirty-word-only write bursts — lives
// here, layered on the timing model in internal/dram.
package memctrl

import (
	"fmt"
	"math/bits"

	"pradram/internal/dram"
)

// Mapping selects the physical-address interleaving.
type Mapping int

const (
	// RowInterleaved places consecutive cache lines in the same row
	// (channel bits lowest, then column, bank, rank, row) — the paper's
	// mapping for the relaxed close-page policy.
	RowInterleaved Mapping = iota
	// LineInterleaved stripes consecutive lines across banks and ranks
	// (channel, bank, rank, column, row) — the paper's mapping for the
	// restricted close-page policy, maximizing parallelism.
	LineInterleaved
)

// String returns the mapping's canonical name.
func (m Mapping) String() string {
	if m == RowInterleaved {
		return "row-interleaved"
	}
	return "line-interleaved"
}

// Loc is a fully decomposed line address.
type Loc struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Col     int // line-within-row index
}

// The coordinates of a line, indexing AddressMapper.f. Their order is the
// row key's, from its lowest bits up (the column is not part of a key).
const (
	fChannel = iota
	fRank
	fBank
	fRow
	fCol
	numFields
)

// field places one coordinate: its value is (line >> shift) & mask in a line
// address (the byte address >> 6), and it sits at bit key of a row key.
type field struct {
	shift, key uint
	mask       uint64
}

// AddressMapper decomposes physical addresses for a given organization.
type AddressMapper struct {
	f [numFields]field
}

// NewAddressMapper validates that every field is a power of two and builds
// the mapper.
func NewAddressMapper(m Mapping, channels int, g dram.Geometry) (*AddressMapper, error) {
	sizes := [numFields]int{channels, g.Ranks, g.Banks, g.Rows, g.LinesPerRow}
	names := [numFields]string{"channels", "ranks", "banks", "rows", "lines per row"}
	for i, v := range sizes {
		if v <= 0 || v&(v-1) != 0 {
			return nil, fmt.Errorf("memctrl: %s must be a positive power of two, got %d", names[i], v)
		}
	}
	// The coordinates in a line address, from its lowest bits up.
	order := [numFields]int{fChannel, fCol, fBank, fRank, fRow}
	if m != RowInterleaved {
		order = [numFields]int{fChannel, fBank, fRank, fCol, fRow}
	}
	am := &AddressMapper{}
	var shift, key uint
	for _, i := range order {
		am.f[i].shift, am.f[i].mask = shift, uint64(sizes[i]-1)
		shift += uint(bits.TrailingZeros(uint(sizes[i])))
	}
	for i := fChannel; i < fCol; i++ {
		am.f[i].key = key
		key += uint(bits.TrailingZeros(uint(sizes[i])))
	}
	return am, nil
}

// get returns the coordinate's value in line address line.
func (f field) get(line uint64) int { return int(line >> f.shift & f.mask) }

// Decompose splits a byte address into its DRAM coordinates. Addresses
// beyond the installed capacity wrap in the row field.
func (am *AddressMapper) Decompose(addr uint64) Loc {
	line := addr >> 6
	return Loc{
		Channel: am.f[fChannel].get(line),
		Rank:    am.f[fRank].get(line),
		Bank:    am.f[fBank].get(line),
		Row:     am.f[fRow].get(line),
		Col:     am.f[fCol].get(line),
	}
}

// RowKey returns a value identifying the DRAM row a line maps to; two
// addresses share a key iff they live in the same (channel, rank, bank,
// row). Used for same-row merging and the DBI.
func (am *AddressMapper) RowKey(addr uint64) uint64 {
	l := am.Decompose(addr)
	return uint64(l.Channel)<<am.f[fChannel].key | uint64(l.Rank)<<am.f[fRank].key |
		uint64(l.Bank)<<am.f[fBank].key | uint64(l.Row)<<am.f[fRow].key
}
