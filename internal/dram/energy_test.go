package dram_test

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/power"
)

// energyReferee recomputes one channel's energy breakdown from its command
// stream. Like the checker it shares no code with Channel or the
// accumulator: it reads ChipPowers, MATEnergy, Timing and Geometry as data
// and restates the Micron-style model of Section 5.1.1 on its own.
//
//   - ACT-PRE: one P_ACT(g) x tRC charge per ACT, g the eighths of the row
//     its mask opens. P_ACT(g) is Table 3's series, the MAT-energy scale of
//     g MAT pairs each half activated under Half-DRAM, or Act[7] x g/8 with
//     linear (inter-chip, SDS) scaling. The ECC chips always activate the
//     full row.
//   - RD and WR: power x the burst's DataEnd-DataStart x Frac, on every chip
//     of the rank, plus termination on each other rank. A write's Frac scales
//     only the data chips; the ECC chip always takes its data.
//   - REF: Ref x tRFC per REF; a REFpb (tRFCpb) or an RFM (tRFM) charges one
//     bank's share.
//   - BG: one standby power per rank state, held over each span between
//     the events that change it. A rank is active while one of its banks is
//     open or an all-bank REF is in its tRFC window; the CKE events set the
//     power-down states.
//
// The device books an auto-precharged bank closed when the column command
// issues, not at the PRE's deferred At, so the referee ends the bank's open
// span at the column command too. A wake switches to the awake power at its
// At, the request, even when CKE then stays low for the rest of tCKE.
type energyReferee struct {
	t            dram.Timing
	g            dram.Geometry
	chip         power.ChipPowers
	mat          power.MATEnergy
	half, linear bool
	ecc          int

	now int64 // At of the last event that took effect there (not an auto-precharge)

	acts        [9]int64 // ACTs by granularity
	rd, wrData  float64  // read burst cycles x Frac; written data-chip burst cycles
	wr          int64    // write burst cycles
	refs, pbCyc int64    // all-bank REFs; REFpb and RFM blocking cycles
	ranks       []erRank
	bgCycles    [numBG]int64 // rank-cycles by background power
}

// bgPower indexes the background powers a rank-cycle is charged at.
type bgPower int

const (
	bgActStby bgPower = iota
	bgPreStby
	bgActPdn
	bgPrePdn
	bgPrePdnSlow
	bgSelfRef
	numBG
)

type erRank struct {
	nOpen  int // open banks
	pd     dram.PDState
	refEnd int64 // end of the last all-bank REF's tRFC window
	from   int64 // first cycle not yet charged
}

// newEnergyReferee builds a referee for a channel of geometry g running
// timing t on the baseline chip. half selects Half-DRAM activation energy,
// linear the inter-chip (SDS) scaling, and ecc counts ECC chips per rank.
func newEnergyReferee(t dram.Timing, g dram.Geometry, half, linear bool, ecc int) *energyReferee {
	return &energyReferee{
		t: t, g: g, chip: power.DefaultChipPowers(), mat: power.DefaultMATEnergy(),
		half: half, linear: linear, ecc: ecc, ranks: make([]erRank, g.Ranks),
	}
}

// advance charges rank rk's background from its last charged cycle up to
// cycle to.
func (r *energyReferee) advance(rk *erRank, to int64) {
	if to <= rk.from {
		return
	}
	if rk.refEnd > rk.from {
		stop := min(rk.refEnd, to)
		r.bgCycles[bgActStby] += stop - rk.from
		rk.from = stop
	}
	var p bgPower
	switch {
	case rk.pd == dram.PDActive:
		p = bgActPdn
	case rk.pd == dram.PDPrechargeFast:
		p = bgPrePdn
	case rk.pd == dram.PDPrechargeSlow:
		p = bgPrePdnSlow
	case rk.pd == dram.PDSelfRefresh:
		p = bgSelfRef
	case rk.nOpen > 0:
		p = bgActStby
	default:
		p = bgPreStby
	}
	r.bgCycles[p] += to - rk.from
	rk.from = to
}

// observe books the next event of the stream.
func (r *energyReferee) observe(e dram.CmdEvent) {
	if !e.AutoPre {
		r.now = e.At
	}
	rk := &r.ranks[e.Rank]
	frac := min(max(e.Frac, 0), 1)
	switch e.Kind {
	case dram.CmdAct:
		r.advance(rk, e.At)
		rk.nOpen++
		r.acts[bits.OnesCount8(uint8(e.Mask))]++
	case dram.CmdPre:
		r.advance(rk, r.now)
		rk.nOpen--
	case dram.CmdRead:
		r.rd += float64(e.DataEnd-e.DataStart) * frac
	case dram.CmdWrite:
		r.wr += e.DataEnd - e.DataStart
		r.wrData += float64(e.DataEnd-e.DataStart) * frac
	case dram.CmdRef:
		if e.PerBank {
			r.pbCyc += int64(r.t.TRFCPB)
			break
		}
		r.advance(rk, e.At)
		rk.refEnd = e.At + int64(r.t.TRFC)
		r.refs++
	case dram.CmdRFM:
		r.pbCyc += trfm(r.t)
	case dram.CmdCKE:
		r.advance(rk, e.At)
		rk.pd = e.PD
	}
}

// reset starts the measurement window at cycle at: what the stream spent
// before it is dropped.
func (r *energyReferee) reset(at int64) {
	for i := range r.ranks {
		r.advance(&r.ranks[i], at)
	}
	r.acts, r.rd, r.wr, r.wrData, r.refs, r.pbCyc, r.bgCycles = [9]int64{}, 0, 0, 0, 0, 0, [numBG]int64{}
}

// actPower is the per-chip P_ACT of a g/8 activation, in mW.
func (r *energyReferee) actPower(g int) float64 {
	c, m := r.chip, r.mat
	switch {
	case r.linear:
		return c.Act[7] * float64(g) / 8
	case !r.half:
		return c.Act[g-1]
	}
	perMAT := m.LocalBitline + m.LocalSenseAmp + m.LocalWordline + m.RowDecoder
	shared := m.ActivationBus + m.RowPredecoder
	n := g * m.MATsPerPRAStep / 2 // Half-DRAM opens half of each selected MAT
	return c.Act[7] * (float64(n)*perMAT + shared) / (float64(m.MATsPerRow)*perMAT + shared)
}

// energy returns the breakdown the stream spent from the window start (0,
// or the last reset) to cycle end, in pJ.
func (r *energyReferee) energy(end int64) power.Breakdown {
	for i := range r.ranks {
		r.advance(&r.ranks[i], end)
	}
	c, tck := r.chip, r.t.TCKNs()
	data, all := float64(r.g.ChipsPerRank), float64(r.g.ChipsPerRank+r.ecc)
	others := float64(r.g.Ranks - 1)
	var b power.Breakdown
	tRC := float64(r.t.TRC) * tck
	for g := 1; g <= 8; g++ {
		b[power.CompActPre] += float64(r.acts[g]) * tRC * (r.actPower(g)*data + r.actPower(8)*float64(r.ecc))
	}
	rd := r.rd * tck * all
	b[power.CompRd] = c.Rd * rd
	b[power.CompRdIO] = c.RdIO * rd
	b[power.CompRdTerm] = c.RdTerm * rd * others
	wr := (r.wrData*data + float64(r.wr)*float64(r.ecc)) * tck
	b[power.CompWr] = c.Wr * wr
	b[power.CompWrODT] = c.WrODT * wr
	b[power.CompWrTerm] = c.WrTerm * wr * others
	bg := [numBG]float64{c.ActStby, c.PreStby, c.ActPdn, c.PrePdn, c.PrePdnSlow, c.SelfRef}
	for p, n := range r.bgCycles {
		b[power.CompBG] += bg[p] * float64(n) * tck * all
	}
	ref := float64(r.refs*int64(r.t.TRFC)) + float64(r.pbCyc)/float64(r.g.Banks)
	b[power.CompRef] = c.Ref * ref * tck * all
	return b
}

// energyTolerance is the relative disagreement the referee allows per
// component: the two sum in different orders, and one missed event is
// orders of magnitude larger at these run lengths.
const energyTolerance = 1e-9

// agree reports the first component on which the device's breakdown got
// differs from the stream's want by more than energyTolerance, naming it.
func agree(got, want power.Breakdown) error {
	for c := power.Component(0); c < power.NumComponents; c++ {
		g, w := got[c], want[c]
		if d := math.Abs(g - w); d > energyTolerance*max(math.Abs(g), math.Abs(w)) {
			return fmt.Errorf("%v: device booked %.9g pJ, the command stream %.9g pJ (off by %.3g relative)", c, g, w, d/max(math.Abs(g), math.Abs(w)))
		}
	}
	return nil
}

// TestEnergyRefereeCatchesEveryRate proves the referee is not vacuous: for
// each rate of the chip, a device whose copy is 1 % high drives the seed
// streams while the referee keeps the exact rate, and the referee must
// report the component the rate feeds.
func TestEnergyRefereeCatchesEveryRate(t *testing.T) {
	t.Parallel()
	rows := []struct {
		rate string
		comp power.Component
		bump func(*power.ChipPowers)
	}{
		{"Act", power.CompActPre, func(c *power.ChipPowers) {
			for g := range c.Act {
				c.Act[g] *= 1.01
			}
		}},
		{"Rd", power.CompRd, func(c *power.ChipPowers) { c.Rd *= 1.01 }},
		{"RdIO", power.CompRdIO, func(c *power.ChipPowers) { c.RdIO *= 1.01 }},
		{"RdTerm", power.CompRdTerm, func(c *power.ChipPowers) { c.RdTerm *= 1.01 }},
		{"Wr", power.CompWr, func(c *power.ChipPowers) { c.Wr *= 1.01 }},
		{"WrODT", power.CompWrODT, func(c *power.ChipPowers) { c.WrODT *= 1.01 }},
		{"WrTerm", power.CompWrTerm, func(c *power.ChipPowers) { c.WrTerm *= 1.01 }},
		{"ActStby", power.CompBG, func(c *power.ChipPowers) { c.ActStby *= 1.01 }},
		{"PreStby", power.CompBG, func(c *power.ChipPowers) { c.PreStby *= 1.01 }},
		{"PrePdn", power.CompBG, func(c *power.ChipPowers) { c.PrePdn *= 1.01 }},
		{"PrePdnSlow", power.CompBG, func(c *power.ChipPowers) { c.PrePdnSlow *= 1.01 }},
		{"ActPdn", power.CompBG, func(c *power.ChipPowers) { c.ActPdn *= 1.01 }},
		{"SelfRef", power.CompBG, func(c *power.ChipPowers) { c.SelfRef *= 1.01 }},
		{"Ref", power.CompRef, func(c *power.ChipPowers) { c.Ref *= 1.01 }},
	}
	for _, row := range rows {
		t.Run(row.rate, func(t *testing.T) {
			t.Parallel()
			chip := power.DefaultChipPowers()
			row.bump(&chip)
			for _, sc := range seedStreams {
				n, err := driveStream(dram.DefaultTiming(), chip, dram.DefaultTiming(), sc, 3000)
				if err == nil {
					continue
				}
				if !names(err, row.comp.String()) {
					t.Fatalf("%s 1 %% high, seed %d, event %d: error does not name %v: %v", row.rate, sc.seed, n, row.comp, err)
				}
				t.Logf("seed %d: %v", sc.seed, err)
				return
			}
			t.Fatalf("%s 1 %% high: the referee agreed with the device on every seed stream", row.rate)
		})
	}
}
