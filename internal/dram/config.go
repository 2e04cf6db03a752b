package dram

import "fmt"

// Timing holds a DRAM timing set in memory-clock cycles, as a device
// (speedgrades.go) derives it for one speed bin from picoseconds and floors.
type Timing struct {
	Rate Rate // data rate, exactly (1600/1 MT/s for DDR3-1600); the clock is half of it

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

// Rate is a data rate in MT/s, the exact fraction Num/Den (5600/3 at DDR3-1866).
type Rate struct{ Num, Den int64 }

// tckPs is the datasheet tCK in ps: 2·10⁶/rate, rounded half up (938 at 6400/3).
func (r Rate) tckPs() int { return int((4_000_000*r.Den + r.Num) / (2 * r.Num)) }

// TCKNs is the datasheet tCK in ns, the period energy and ns figures scale by.
func (t Timing) TCKNs() float64 { return float64(t.Rate.tckPs()) / 1000 }

// DefaultTiming returns the paper's DDR3-1600 timing set, ddr3.bins[3]:
// Table 3, and the datasheet for what the table leaves out.
func DefaultTiming() Timing { return ddr3.timing(ddr3.bins[3]) }

// Validate reports the first inconsistency in the timing set.
func (t Timing) Validate() error {
	switch {
	case t.Rate.Num <= 0 || t.Rate.Den <= 0:
		return fmt.Errorf("dram: Rate must be a positive fraction, got %d/%d MT/s", t.Rate.Num, t.Rate.Den)
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
	case t.TXS != 0 && t.TXS <= t.TRFC:
		return fmt.Errorf("dram: TXS (%d) <= TRFC (%d): self-refresh exit must outlast a refresh", t.TXS, t.TRFC)
	case t.TRFM != 0 && t.TRFM > t.TRFC:
		return fmt.Errorf("dram: TRFM (%d) > TRFC (%d): refresh management cannot outlast a refresh", t.TRFM, t.TRFC)
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
