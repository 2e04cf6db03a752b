package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestComponentString(t *testing.T) {
	if CompActPre.String() != "ACT-PRE" || CompRef.String() != "REF" {
		t.Error("component names wrong")
	}
	if Component(99).String() != "Component(99)" {
		t.Error("out-of-range component string wrong")
	}
}

func TestBreakdownTotalsAndShares(t *testing.T) {
	var b Breakdown
	b[CompActPre] = 30
	b[CompBG] = 50
	b[CompRdIO] = 10
	b[CompWrODT] = 10
	if b.Total() != 100 {
		t.Errorf("total = %v, want 100", b.Total())
	}
	if b.IO() != 20 {
		t.Errorf("IO = %v, want 20", b.IO())
	}
	if b.Share(CompActPre) != 0.3 {
		t.Errorf("ACT-PRE share = %v, want 0.3", b.Share(CompActPre))
	}
	if (Breakdown{}).Share(CompBG) != 0 {
		t.Error("empty breakdown share must be 0")
	}
	sum := b.Add(b)
	if sum.Total() != 200 {
		t.Errorf("Add total = %v, want 200", sum.Total())
	}
}

func TestActivationEnergyCharges(t *testing.T) {
	a := NewAccumulator()
	const tRC = 39 * 1.25
	a.Activation(8, false, tRC)
	full := a.Energy()[CompActPre]
	want := 22.2 * tRC * 8
	if math.Abs(full-want) > 1e-6 {
		t.Errorf("full ACT energy = %v pJ, want %v", full, want)
	}
	a.Reset()
	a.Activation(1, false, tRC)
	eighth := a.Energy()[CompActPre]
	if ratio := eighth / full; math.Abs(ratio-3.7/22.2) > 1e-9 {
		t.Errorf("1/8 ACT ratio = %v, want %v", ratio, 3.7/22.2)
	}
	a.Reset()
	a.Activation(0, false, tRC)
	if a.TotalEnergy() != 0 {
		t.Error("granularity-0 activation must be free")
	}
}

func TestHalfDRAMActivationCheaper(t *testing.T) {
	a := NewAccumulator()
	for g := 1; g <= 8; g++ {
		plain := a.ActPowerScaled(g, false)
		half := a.ActPowerScaled(g, true)
		if half >= plain {
			t.Errorf("g=%d: Half-DRAM power %.2f must be below plain %.2f", g, half, plain)
		}
	}
	// Half-DRAM full row sits near the published 4/8 point (11.6 mW).
	hd := a.ActPowerScaled(8, true)
	if math.Abs(hd-11.6) > 0.5 {
		t.Errorf("Half-DRAM full-row P_ACT = %.2f mW, want ~11.6", hd)
	}
}

func TestReadWriteBurstCharges(t *testing.T) {
	a := NewAccumulator()
	const burst = 4 * 1.25
	a.ReadBurst(burst)
	e := a.Energy()
	if e[CompRd] != 78*burst*8 {
		t.Errorf("RD energy = %v", e[CompRd])
	}
	if e[CompRdIO] != 4.6*burst*8 {
		t.Errorf("RD I/O energy = %v", e[CompRdIO])
	}
	if e[CompRdTerm] != 15.5*burst*8*1 {
		t.Errorf("RD TERM energy = %v", e[CompRdTerm])
	}

	a.Reset()
	a.WriteBurst(burst, 1)
	full := a.Energy()
	a.Reset()
	a.WriteBurst(burst, 0.125)
	partial := a.Energy()
	for _, c := range []Component{CompWr, CompWrODT, CompWrTerm} {
		if math.Abs(partial[c]/full[c]-0.125) > 1e-9 {
			t.Errorf("%s: partial write must scale by transferred fraction", c)
		}
	}
	a.Reset()
	a.WriteBurst(burst, -1)
	if a.TotalEnergy() != 0 {
		t.Error("negative fraction clamps to 0")
	}
	a.Reset()
	a.WriteBurst(burst, 2)
	if got := a.Energy()[CompWr]; got != full[CompWr] {
		t.Error("fraction above 1 clamps to 1")
	}
}

func TestBackgroundStates(t *testing.T) {
	a := NewAccumulator()
	a.Background(RankActive, 10)
	act := a.TotalEnergy()
	a.Reset()
	a.Background(RankPrecharged, 10)
	pre := a.TotalEnergy()
	a.Reset()
	a.Background(RankPoweredDown, 10)
	pdn := a.TotalEnergy()
	if !(act > pre && pre > pdn) {
		t.Errorf("background ordering violated: act=%v pre=%v pdn=%v", act, pre, pdn)
	}
	if act != 42*10*8 || pre != 27*10*8 || pdn != 18*10*8 {
		t.Error("background energies do not match Table 3 values")
	}
}

func TestRefreshCharge(t *testing.T) {
	a := NewAccumulator()
	a.Refresh(160)
	if got := a.Energy()[CompRef]; got != 210*160*8 {
		t.Errorf("REF energy = %v, want %v", got, 210.0*160*8)
	}
}

func TestAvgPower(t *testing.T) {
	a := NewAccumulator()
	a.Background(RankPrecharged, 100)
	// 27 mW x 8 chips for the whole interval (pJ / ns = mW).
	if got := a.TotalEnergy() / 100; math.Abs(got-216) > 1e-9 {
		t.Errorf("avg power = %v mW, want 216", got)
	}
}

// Property: energy is additive and never negative for any event sequence.
func TestAccumulatorAdditiveProperty(t *testing.T) {
	f := func(events []uint8) bool {
		a := NewAccumulator()
		prev := 0.0
		for _, ev := range events {
			switch ev % 5 {
			case 0:
				a.Activation(int(ev%8)+1, ev%2 == 0, 48.75)
			case 1:
				a.ReadBurst(5)
			case 2:
				a.WriteBurst(5, float64(ev%9)/8)
			case 3:
				a.Background(RankState(ev%3), 7)
			case 4:
				a.Refresh(160)
			}
			now := a.TotalEnergy()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
