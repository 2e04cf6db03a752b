package power

import "pradram/internal/core"

// Component identifies one slice of the DRAM power breakdown, following the
// legend of Figure 2 (with the I/O slice kept at its natural finer grain:
// read I/O, write ODT, and read/write termination, which Figure 12(b)
// aggregates as "I/O").
type Component int

const (
	CompActPre Component = iota // row activation + bank precharge pairs
	CompRd                      // column read array power
	CompWr                      // column write array power
	CompRdIO                    // read output drivers
	CompWrODT                   // write on-die termination
	CompRdTerm                  // read termination on the other rank
	CompWrTerm                  // write termination on the other rank
	CompBG                      // background / standby
	CompRef                     // refresh

	// NumComponents counts the components above; Breakdown is indexed by
	// Component and sized by it.
	NumComponents
)

var componentNames = core.Enum[Component]{
	Names: []string{"ACT-PRE", "RD", "WR", "RD I/O", "WR ODT", "RD TERM", "WR TERM", "BG", "REF"},
}

// String returns the component's table label (e.g. "ACT-PRE", "BG").
func (c Component) String() string { return componentNames.Name(c) }

// Breakdown is an energy breakdown in picojoules.
type Breakdown [NumComponents]float64

// Total returns the summed energy in pJ.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// IO returns the aggregate I/O energy (read I/O + write ODT + read/write
// termination), the grouping used in Figure 12(b).
func (b Breakdown) IO() float64 {
	return b[CompRdIO] + b[CompWrODT] + b[CompRdTerm] + b[CompWrTerm]
}

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	for i := range b {
		b[i] += o[i]
	}
	return b
}

// Share returns component c's fraction of the total (0 when total is 0).
func (b Breakdown) Share(c Component) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b[c] / t
}

// Accumulator accrues DRAM energy per component. One Accumulator covers one
// channel (all its ranks); the simulator sums accumulators for system
// totals. The zero value is ready to use after setting the parameter
// fields, but NewAccumulator wires the defaults.
type Accumulator struct {
	Chip ChipPowers
	MAT  MATEnergy

	// ChipsPerRank is how many devices act in lockstep per rank (8 for the
	// baseline x8 rank with a 64-bit bus).
	ChipsPerRank int
	// OtherRanks is how many other ranks on the channel terminate a
	// transfer (1 for the 2-rank channels of the baseline).
	OtherRanks int

	// LinearActScale switches partial-activation energy from the
	// MAT-level curve (shared activation bus and predecoder keep partial
	// rows from scaling linearly) to a linear per-chip scale. Inter-chip
	// schemes (SDS) skip whole devices, each of which carries its own
	// shared overheads, so their saving is linear in skipped chips.
	LinearActScale bool

	// ECCChips counts extra devices per rank storing ECC codes (1 on an
	// x72 DIMM). Per Section 4.2, the ECC chip's PRA command pin is tied
	// high: it always activates a full row and always transfers its data,
	// regardless of the PRA mask on the data chips.
	ECCChips int

	energy Breakdown
}

// NewAccumulator returns an accumulator with the paper's baseline
// parameters.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		Chip:         DefaultChipPowers(),
		MAT:          DefaultMATEnergy(),
		ChipsPerRank: 8,
		OtherRanks:   1,
	}
}

// ActPowerScaled returns the per-chip activation power (mW) of a g/8
// partial activation under the MAT-energy scaling. It prefers the published
// Table 3 series for the plain-DRAM granularities and falls back to the
// analytic scale (used for Half-DRAM variants, which Table 3 doesn't
// enumerate).
func (a *Accumulator) ActPowerScaled(g int, halfDRAM bool) float64 {
	if g <= 0 {
		return 0
	}
	if g > 8 {
		g = 8
	}
	if a.LinearActScale {
		return a.Chip.Act[7] * float64(g) / 8
	}
	if !halfDRAM {
		return a.Chip.Act[g-1]
	}
	return a.Chip.Act[7] * a.MAT.ScaleGranularity(g, true)
}

// Activation charges one ACT-PRE pair at g/8 granularity. tRCns is the row
// cycle time in nanoseconds: the Micron model folds activation and
// precharge energy into P_ACT over tRC (Section 5.1.1). The ECC chip, when
// present, always activates fully.
func (a *Accumulator) Activation(g int, halfDRAM bool, tRCns float64) {
	e := a.ActPowerScaled(g, halfDRAM) * tRCns * float64(a.ChipsPerRank)
	if a.ECCChips > 0 {
		e += a.ActPowerScaled(8, halfDRAM) * tRCns * float64(a.ECCChips)
	}
	a.energy[CompActPre] += e
}

// ReadBurst charges one column read of burstNs on the data bus: array read
// power and read I/O on the selected rank, read termination on the other
// ranks.
func (a *Accumulator) ReadBurst(burstNs float64) {
	n := float64(a.ChipsPerRank + a.ECCChips)
	a.energy[CompRd] += a.Chip.Rd * burstNs * n
	a.energy[CompRdIO] += a.Chip.RdIO * burstNs * n
	a.energy[CompRdTerm] += a.Chip.RdTerm * burstNs * n * float64(a.OtherRanks)
}

// WriteBurst charges one column write of burstNs. frac is the fraction of
// the line's words actually driven on the bus: PRA transfers only dirty
// words, so array write, ODT, and termination energy all scale with frac
// (Section 4.1.2 / Figure 12(b)). Conventional schemes pass frac = 1.
func (a *Accumulator) WriteBurst(burstNs, frac float64) {
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	// Data chips transfer only the masked fraction; the ECC chip always
	// receives its full data (its PRA pin is tied high).
	n := float64(a.ChipsPerRank)*frac + float64(a.ECCChips)
	a.energy[CompWr] += a.Chip.Wr * burstNs * n
	a.energy[CompWrODT] += a.Chip.WrODT * burstNs * n
	a.energy[CompWrTerm] += a.Chip.WrTerm * burstNs * n * float64(a.OtherRanks)
}

// RankState describes a rank's background-power state for one accounting
// interval.
type RankState int

const (
	RankActive          RankState = iota // at least one bank open: ACT STBY
	RankPrecharged                       // all banks idle, CKE high: PRE STBY
	RankPoweredDown                      // fast-exit precharge power-down: PRE PDN
	RankActivePD                         // active power-down (banks open, CKE low): ACT PDN
	RankPoweredDownSlow                  // slow-exit precharge power-down (DLL frozen)
	RankSelfRefresh                      // self-refresh (internal refresh included)
)

// Background charges ns nanoseconds of standby power for one rank in the
// given state. Self-refresh intervals are charged at the IDD6-derived
// SelfRef power only — the internally generated refresh bursts are folded
// into that figure, so no separate Refresh charge applies while a rank
// self-refreshes.
func (a *Accumulator) Background(s RankState, ns float64) {
	var p float64
	switch s {
	case RankActive:
		p = a.Chip.ActStby
	case RankPrecharged:
		p = a.Chip.PreStby
	case RankActivePD:
		p = a.Chip.ActPdn
	case RankPoweredDownSlow:
		p = a.Chip.PrePdnSlow
	case RankSelfRefresh:
		p = a.Chip.SelfRef
	default:
		p = a.Chip.PrePdn
	}
	a.energy[CompBG] += p * ns * float64(a.ChipsPerRank+a.ECCChips)
}

// Refresh charges one refresh of tRFCns on a rank. The refresh power is
// charged on top of background for the duration of tRFC.
func (a *Accumulator) Refresh(tRFCns float64) {
	a.energy[CompRef] += a.Chip.Ref * tRFCns * float64(a.ChipsPerRank+a.ECCChips)
}

// Energy returns the accumulated breakdown in pJ.
func (a *Accumulator) Energy() Breakdown { return a.energy }

// Component returns the accumulated energy of one component in pJ — the
// live-probe accessor the telemetry recorder samples at epoch boundaries
// (cheaper than copying the whole Breakdown per probe).
func (a *Accumulator) Component(c Component) float64 {
	if c < 0 || c >= NumComponents {
		return 0
	}
	return a.energy[c]
}

// TotalEnergy returns the total accumulated energy in pJ.
func (a *Accumulator) TotalEnergy() float64 { return a.energy.Total() }

// Reset clears the accumulated energy.
func (a *Accumulator) Reset() { a.energy = Breakdown{} }
