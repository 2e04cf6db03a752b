package sim

import (
	"fmt"

	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// AnalyticEstimate feeds a simulation result's aggregate counters into the
// closed-form Micron-style calculator and returns the predicted breakdown
// in mW. The calculator and the simulator share parameters but compute
// power along independent paths (closed-form rates vs event-by-event
// accounting), so the ratio between them is a model-consistency check.
func AnalyticEstimate(res Result) (power.Breakdown, error) {
	calc := power.NewCalculator()
	total := float64(res.Dev.ActiveRankCycles + res.Dev.PrechargedRankCycles + res.Dev.PowerDownCycles)
	activeFrac, pdnFrac := 0.0, 0.0
	if total > 0 {
		activeFrac = float64(res.Dev.ActiveRankCycles) / total
		pdnFrac = float64(res.Dev.PowerDownCycles) / total
	}
	w := power.WorkloadFromCounts(
		res.RuntimeNs(),
		res.Ctrl.ReadsServed, res.Ctrl.WritesServed,
		res.Ctrl.RowHitRead, res.Ctrl.RowHitWrite,
		res.Dev.ActsByGranularity,
		res.Dev.WordsWritten, res.Dev.WordBudget,
		activeFrac, pdnFrac,
	)
	return calc.Estimate(w)
}

// modelCheckCases is the workload/scheme spread the cross-validation
// runs; keysModelCheck precomputes exactly this set.
var modelCheckCases = []struct {
	workload string
	scheme   memctrl.Scheme
}{
	{"GUPS", memctrl.Baseline},
	{"GUPS", memctrl.PRA},
	{"libquantum", memctrl.Baseline},
	{"libquantum", memctrl.PRA},
	{"MIX2", memctrl.Baseline},
	{"MIX2", memctrl.PRA},
}

// ExpModelCheck cross-validates the analytic calculator against the
// cycle-level simulation on a spread of workloads and schemes.
func ExpModelCheck(rs runSet) (string, error) {
	cases := modelCheckCases
	t := stats.NewTable("workload", "scheme", "simulated mW", "analytic mW", "ratio",
		"ACT ratio", "I/O ratio", "BG ratio")
	for _, c := range cases {
		res := rs.get(newKey(c.workload, c.scheme, memctrl.RelaxedClose, 4))
		est, err := AnalyticEstimate(res)
		if err != nil {
			return "", err
		}
		simMW := res.AvgPowerMW()
		simBrk := res.Energy
		rt := res.RuntimeNs()
		ratio := func(c power.Component) string {
			s := simBrk[c] / rt
			if s == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3f", est[c]/s)
		}
		ioSim := simBrk.IO() / rt
		ioRatio := "-"
		if ioSim > 0 {
			ioRatio = fmt.Sprintf("%.3f", est.IO()/ioSim)
		}
		t.Row(c.workload, c.scheme.String(), simMW, est.Total(),
			stats.Ratio(est.Total(), simMW), ratio(power.CompActPre), ioRatio, ratio(power.CompBG))
	}
	return t.String() + "\nRatios near 1.0 mean the closed-form model and the event-driven simulation\nagree; deviations come from burstiness the closed form cannot see (refresh\ninterference, drain phasing, queueing).\n", nil
}
