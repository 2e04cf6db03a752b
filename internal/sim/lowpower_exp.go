package sim

import (
	"fmt"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// The power-down & refresh management experiments (DESIGN.md §4f):
// pdsweep measures how each entry policy and refresh mode trades
// low-power residency against performance, and powerband reports every
// energy figure as the min/nominal/max band its calibration implies.

// pdVariant is one power-management configuration of the sweep.
type pdVariant struct {
	name string
	memctrl.LowPower
}

// pdVariants is the sweep, in presentation order. Timeouts are in memory
// cycles: 200 (250ns) is a conventional power-down hysteresis, 5000
// (6.25us) a conservative self-refresh threshold.
func pdVariants() []pdVariant {
	return []pdVariant{
		{name: "no-pd", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDNone}},
		{name: "immediate", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDImmediate}},
		{name: "imm-slowexit", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDImmediate, PDSlowExit: true}},
		{name: "timeout-200", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDTimed, PDTimeout: 200}},
		{name: "queue-200", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDQueueAware, PDTimeout: 200}},
		{name: "imm+selfref", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDImmediate, SRTimeout: 5000}},
		{name: "imm+perbank", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDImmediate, RefreshMode: dram.RefPerBank}},
		{name: "imm+elastic", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDImmediate, RefreshMode: dram.RefElastic}},
	}
}

// pdSweepWorkloads spans the intensity range: GUPS keeps every rank busy,
// bzip2 is compute-bound, and MIX1's imbalanced mix leaves whole ranks
// idle the longest — which is what rank-granularity power-down harvests.
var pdSweepWorkloads = []string{"bzip2", "GUPS", "MIX1"}

func pdKey(w string, v pdVariant) runKey {
	k := newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4)
	k.LowPower = v.LowPower
	return k
}

// ExpPDSweep regenerates the power-down & refresh management sweep:
// low-power residency, refresh-management activity, and the resulting
// background/total power for every entry policy, against the no-power-
// down baseline of each workload.
func ExpPDSweep(rs runSet) (string, error) {
	t := stats.NewTable("workload", "policy",
		"lowpow%", "selfref%", "REF", "REFpb", "post/pull",
		"BG mW", "total mW", "dPower%", "dCycles%")
	for _, w := range pdSweepWorkloads {
		base := rs.get(pdKey(w, pdVariant{name: "no-pd", LowPower: memctrl.LowPower{PDPolicy: memctrl.PDNone}}))
		for _, v := range pdVariants() {
			res := rs.get(pdKey(w, v))
			t.Row(w, v.name,
				fmt.Sprintf("%5.1f", 100*res.LowPowerResidency()),
				fmt.Sprintf("%5.1f", 100*res.SelfRefreshResidency()),
				res.Dev.Refreshes,
				res.Dev.PerBankRefreshes,
				fmt.Sprintf("%d/%d", res.Dev.PostponedRefreshes, res.Dev.PulledInRefreshes),
				res.Energy[power.CompBG]/res.RuntimeNs(),
				res.AvgPowerMW(),
				100*(res.AvgPowerMW()/base.AvgPowerMW()-1),
				100*(float64(res.Cycles)/float64(base.Cycles)-1))
		}
	}
	return t.String() + "\nlowpow% counts rank-cycles with CKE low (any power-down state or self-refresh);\n" +
		"dPower/dCycles are relative to the no-pd row of the same workload.\n", nil
}

// ExpPowerBand regenerates the calibrated power-band report: each
// simulated energy result under every calibration preset, as the
// min/nominal/max average-power band the correction factors imply.
// Calibration is post-hoc, so all presets share one simulation per run.
func ExpPowerBand(rs runSet) (string, error) {
	specs := []string{"none", "vendor", "ghose", "ghose:10"}
	t := stats.NewTable("workload", "scheme", "calibration",
		"min mW", "nom mW", "max mW", "spread%")
	for _, w := range []string{"GUPS", "MIX1"} {
		for _, s := range []memctrl.Scheme{memctrl.Baseline, memctrl.PRA} {
			res := rs.get(newKey(w, s, memctrl.RelaxedClose, 4))
			for _, spec := range specs {
				var err error
				if res.Cal, err = power.ParseCalibration(spec); err != nil {
					return "", err
				}
				band := res.PowerBandMW()
				t.Row(w, s.String(), spec,
					band.Min, band.Nom, band.Max, 100*band.Spread())
			}
		}
	}
	return t.String() + "\nBands combine per-component correction-factor extremes (conservative);\n" +
		"the ghose preset follows the real-device deviations reported by Ghose et al.\n" +
		"(arXiv:1807.05102); \":10\" adds +-10% device-to-device variation on top.\n", nil
}
