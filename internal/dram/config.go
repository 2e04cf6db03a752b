package dram

import "fmt"

// Timing holds the DDR3 timing parameters in memory-clock cycles, matching
// the paper's Table 3 for a 2Gb x8 DDR3-1600 device.
type Timing struct {
	TCKNs float64 // clock period in ns (1.25 for DDR3-1600)

	TRCD   int // ACT to column command
	TRP    int // PRE to ACT
	TCAS   int // CL: read command to first data
	TRAS   int // ACT to PRE
	TWR    int // end of write burst to PRE
	TCCD   int // column command to column command
	TRRD   int // ACT to ACT, different banks, same rank
	TFAW   int // four-activation window
	TRC    int // ACT to ACT, same bank (tRAS + tRP)
	TBURST int // data-bus cycles per 8-beat burst (4 at DDR)
	CWL    int // write command to first data
	TRTP   int // read to PRE
	TWTR   int // end of write burst to read command
	TRTRS  int // rank-to-rank data-bus switch
	TREFI  int // refresh interval
	TRFC   int // refresh cycle time (all-bank REF)
	TRFCPB int // per-bank refresh cycle time (REFpb blocks one bank)
	TXP    int // fast power-down exit to first command (DLL on)
	TXPDLL int // slow precharge power-down exit (DLL frozen) to first command
	TXS    int // self-refresh exit to first command
	TCKE   int // minimum CKE pulse width (residency in/out of power-down)
	TRFM   int // refresh-management (RFM) blocking time (0 = tRFCpb, then tRFC)

	// PRAMaskCycles is the extra command-cycle cost of a partial
	// activation: the PRA mask rides the address bus the cycle after the
	// ACT command, delaying the column command by one cycle (Figure 7a)
	// and occupying the command/address bus for one extra cycle.
	PRAMaskCycles int
}

// DefaultTiming returns the DDR3-1600 parameters from Table 3, with the
// secondary parameters (CWL, tRTP, tWTR, tRTRS, tREFI, tRFC, tXP, and the
// power-down/self-refresh set tXPDLL, tXS, tCKE, tRFCpb) set to standard
// DDR3-1600 datasheet values the paper does not list explicitly.
func DefaultTiming() Timing {
	return Timing{
		TCKNs:         1.25,
		TRCD:          11,
		TRP:           11,
		TCAS:          11,
		TRAS:          28,
		TWR:           12,
		TCCD:          4,
		TRRD:          5,
		TFAW:          24,
		TRC:           39,
		TBURST:        4,
		CWL:           8,
		TRTP:          6,
		TWTR:          6,
		TRTRS:         2,
		TREFI:         6240, // 7.8 us
		TRFC:          128,  // 160 ns for a 2Gb device
		TRFCPB:        72,   // 90 ns: per-bank refresh blocks one bank
		TXP:           5,    // 6 ns fast power-down exit
		TXPDLL:        20,   // 24 ns slow (DLL-off) precharge power-down exit
		TXS:           136,  // tRFC + 10 ns: self-refresh exit
		TCKE:          4,    // 5 ns minimum CKE pulse width
		TRFM:          72,   // 90 ns refresh-management burst (a few victim rows)
		PRAMaskCycles: 1,
	}
}

// Validate reports the first inconsistency in the timing set.
func (t Timing) Validate() error {
	switch {
	case t.TCKNs <= 0:
		return fmt.Errorf("dram: TCKNs must be positive, got %v", t.TCKNs)
	case t.TRC < t.TRAS+t.TRP:
		return fmt.Errorf("dram: TRC (%d) < TRAS+TRP (%d)", t.TRC, t.TRAS+t.TRP)
	case t.TRCD <= 0 || t.TRP <= 0 || t.TCAS <= 0 || t.TBURST <= 0:
		return fmt.Errorf("dram: primary timings must be positive")
	case t.TFAW < t.TRRD:
		return fmt.Errorf("dram: TFAW (%d) < TRRD (%d)", t.TFAW, t.TRRD)
	case t.TREFI <= t.TRFC:
		return fmt.Errorf("dram: TREFI (%d) must exceed TRFC (%d)", t.TREFI, t.TRFC)
	case t.TXP < 0 || t.TXPDLL < 0 || t.TXS < 0 || t.TCKE < 0 || t.TRFCPB < 0 || t.TRFM < 0:
		return fmt.Errorf("dram: power-down/refresh timings must be non-negative")
	case t.TXPDLL != 0 && t.TXPDLL < t.TXP:
		return fmt.Errorf("dram: TXPDLL (%d) < TXP (%d): slow exit cannot beat fast exit", t.TXPDLL, t.TXP)
	case t.TXS != 0 && t.TXS < t.TXP:
		return fmt.Errorf("dram: TXS (%d) < TXP (%d): self-refresh exit cannot beat power-down exit", t.TXS, t.TXP)
	case t.TRFCPB != 0 && t.TRFCPB > t.TRFC:
		return fmt.Errorf("dram: TRFCPB (%d) > TRFC (%d): per-bank refresh cannot outlast all-bank", t.TRFCPB, t.TRFC)
	}
	return nil
}

// Geometry describes the channel organization (paper Table 3: 8GB, 2
// channels, 2 ranks/channel, 8 x8 chips/rank, 8 banks, 32K rows, 1KB row
// per chip => 8KB row per rank => 128 64B lines per row).
type Geometry struct {
	Ranks        int
	Banks        int // per rank
	Rows         int // per bank
	LinesPerRow  int // 64B cache lines per row (rank-level row)
	ChipsPerRank int
}

// DefaultGeometry returns one baseline channel's organization.
func DefaultGeometry() Geometry {
	return Geometry{Ranks: 2, Banks: 8, Rows: 32768, LinesPerRow: 128, ChipsPerRank: 8}
}

// Validate reports the first inconsistency in the geometry.
func (g Geometry) Validate() error {
	if g.Ranks <= 0 || g.Banks <= 0 || g.Rows <= 0 || g.LinesPerRow <= 0 || g.ChipsPerRank <= 0 {
		return fmt.Errorf("dram: geometry fields must be positive: %+v", g)
	}
	return nil
}
