package memctrl

import (
	"testing"
	"testing/quick"

	"pradram/internal/dram"
)

func TestMapperValidation(t *testing.T) {
	t.Parallel()
	g := dram.DefaultGeometry()
	if _, err := NewAddressMapper(RowInterleaved, 3, g); err == nil {
		t.Error("non-power-of-two channels must fail")
	}
	bad := g
	bad.Banks = 6
	if _, err := NewAddressMapper(RowInterleaved, 2, bad); err == nil {
		t.Error("non-power-of-two banks must fail")
	}
	if _, err := NewAddressMapper(RowInterleaved, 2, g); err != nil {
		t.Errorf("default geometry must map: %v", err)
	}
}

func TestDecomposeComposeRoundTrip(t *testing.T) {
	t.Parallel()
	g := dram.DefaultGeometry()
	for _, m := range []Mapping{RowInterleaved, LineInterleaved} {
		am, err := NewAddressMapper(m, 2, g)
		if err != nil {
			t.Fatal(err)
		}
		f := func(raw uint64) bool {
			addr := (raw % (8 << 30)) &^ 63 // line-aligned, within 8GB
			l := am.Decompose(addr)
			if l.Channel >= 2 || l.Rank >= g.Ranks || l.Bank >= g.Banks ||
				l.Row >= g.Rows || l.Col >= g.LinesPerRow {
				return false
			}
			return compose(am, l) == addr
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

func TestRowInterleavedLocality(t *testing.T) {
	t.Parallel()
	am, _ := NewAddressMapper(RowInterleaved, 2, dram.DefaultGeometry())
	// Consecutive lines on the same channel share a row until the column
	// bits roll over: lines 0 and 2 (both channel 0).
	a, b := am.Decompose(0), am.Decompose(128)
	if a.Channel != 0 || b.Channel != 0 {
		t.Fatal("lines 0 and 2 should be channel 0")
	}
	if a.Row != b.Row || a.Bank != b.Bank || a.Rank != b.Rank {
		t.Error("row-interleaved consecutive lines must share a row")
	}
	if a.Col == b.Col {
		t.Error("columns must differ")
	}
	if am.RowKey(0) != am.RowKey(128) {
		t.Error("row keys must match for same row")
	}
	// 128 lines per row per channel: line 128 on channel 0 starts a new bank.
	c := am.Decompose(uint64(128) * 128)
	if c.Bank == a.Bank && c.Row == a.Row && c.Rank == a.Rank {
		t.Error("after a full row, the bank must advance")
	}
}

func TestLineInterleavedParallelism(t *testing.T) {
	t.Parallel()
	am, _ := NewAddressMapper(LineInterleaved, 2, dram.DefaultGeometry())
	a, b := am.Decompose(0), am.Decompose(128) // consecutive channel-0 lines
	if a.Bank == b.Bank {
		t.Error("line-interleaved consecutive lines must hit different banks")
	}
}

func TestRowKeyDistinguishesCoordinates(t *testing.T) {
	t.Parallel()
	am, _ := NewAddressMapper(RowInterleaved, 2, dram.DefaultGeometry())
	base := compose(am, Loc{Channel: 0, Rank: 0, Bank: 0, Row: 10, Col: 0})
	cases := []Loc{
		{Channel: 1, Rank: 0, Bank: 0, Row: 10, Col: 0},
		{Channel: 0, Rank: 1, Bank: 0, Row: 10, Col: 0},
		{Channel: 0, Rank: 0, Bank: 1, Row: 10, Col: 0},
		{Channel: 0, Rank: 0, Bank: 0, Row: 11, Col: 0},
	}
	for _, l := range cases {
		if am.RowKey(compose(am, l)) == am.RowKey(base) {
			t.Errorf("row key collision with %+v", l)
		}
	}
	same := compose(am, Loc{Channel: 0, Rank: 0, Bank: 0, Row: 10, Col: 99})
	if am.RowKey(same) != am.RowKey(base) {
		t.Error("same row, different column must share a key")
	}
}

func TestSchemePolicyParsing(t *testing.T) {
	t.Parallel()
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("nosuch"); err == nil {
		t.Error("unknown scheme must error")
	}
	for _, name := range []string{"relaxed", "restricted", "relaxed-close", "restricted-close"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
	if _, err := ParsePolicy("nosuch"); err == nil {
		t.Error("unknown policy must error")
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme string must be non-empty")
	}
}

func TestSchemeProperties(t *testing.T) {
	t.Parallel()
	if !FGA.halfDRAMOrg() || !HalfDRAM.halfDRAMOrg() || !HalfDRAMPRA.halfDRAMOrg() {
		t.Error("FGA/HalfDRAM/HalfDRAMPRA use the half organization")
	}
	if Baseline.halfDRAMOrg() || PRA.halfDRAMOrg() {
		t.Error("baseline and PRA use the plain organization")
	}
	if !PRA.praWrites() || !HalfDRAMPRA.praWrites() || Baseline.praWrites() || HalfDRAM.praWrites() {
		t.Error("praWrites flags wrong")
	}
	if FGA.burstCycles(4) != 8 || PRA.burstCycles(4) != 4 {
		t.Error("burst cycles wrong")
	}
}

// compose is the inverse of AddressMapper.Decompose (for addresses within
// capacity).
func compose(am *AddressMapper, l Loc) uint64 {
	line := uint64(l.Channel)<<am.f[fChannel].shift | uint64(l.Rank)<<am.f[fRank].shift |
		uint64(l.Bank)<<am.f[fBank].shift | uint64(l.Row)<<am.f[fRow].shift | uint64(l.Col)<<am.f[fCol].shift
	return line << 6
}
