package sim

import (
	"fmt"

	"pradram/internal/memctrl"
	"pradram/internal/stats"
)

// The RowHammer mitigation experiment (DESIGN.md §4g): drive the
// adversarial hammer generators (plus GUPS as a benign control) against
// the Alert/RFM mitigation, with PRA on and off, and report what the
// defense costs — alerts raised, RFMs issued, command-stream stall cycles,
// and the runtime and power deltas against the same run with mitigation
// disabled.

// hammerMitThreshold is the per-row activation threshold the experiment
// arms. A serialized attack stream lands only a handful of activations on
// an aggressor row per refresh window (tREFI between counter resets), so a
// small threshold is what separates the hammer patterns from the benign
// control here; real PRAC thresholds are larger because real windows are
// too. At 4, the three targeted hammers alert steadily while GUPS and the
// row-uniform RowStorm never do.
const hammerMitThreshold = 4

// hammerWorkloads are the experiment's rows: the four adversarial
// patterns, then GUPS — memory-intensive but row-uniform, so a correctly
// tuned threshold should barely fire on it.
var hammerWorkloads = []string{"HammerSingle", "HammerDouble", "RowStorm", "HammerDecoy", "GUPS"}

// hammerSchemes spans the paper's axis: does partial-row activation change
// what the mitigation costs?
var hammerSchemes = []memctrl.Scheme{memctrl.Baseline, memctrl.PRA}

func hammerKey(w string, s memctrl.Scheme, threshold int) runKey {
	k := newKey(w, s, memctrl.RelaxedClose, 1)
	k.MitThreshold = threshold
	return k
}

func keysHammer() []runKey {
	var keys []runKey
	for _, w := range hammerWorkloads {
		for _, s := range hammerSchemes {
			keys = append(keys, hammerKey(w, s, 0), hammerKey(w, s, hammerMitThreshold))
		}
	}
	return keys
}

// ExpHammer regenerates the mitigation-overhead table. Every mitigation-on
// run is paired with the identical run with mitigation off (which is
// bit-identical to a simulator without the feature — the identity suite
// enforces that), so the deltas isolate the defense's cost.
func ExpHammer(rs runSet) (string, error) {
	t := stats.NewTable("workload", "scheme",
		"alerts", "RFMs", "stall cyc", "spills", "dCycles%", "dPower%")
	for _, w := range hammerWorkloads {
		for _, s := range hammerSchemes {
			base := rs.get(hammerKey(w, s, 0))
			res := rs.get(hammerKey(w, s, hammerMitThreshold))
			t.Row(w, s.String(),
				res.Ctrl.Alerts,
				res.Dev.RFMs,
				res.Ctrl.AlertStallCycles,
				res.Dev.RowSpills,
				fmt.Sprintf("%+.2f", 100*(float64(res.Cycles)/float64(base.Cycles)-1)),
				fmt.Sprintf("%+.2f", 100*(res.AvgPowerMW()/base.AvgPowerMW()-1)))
		}
	}
	return t.String() + fmt.Sprintf("\nAlert/RFM mitigation at threshold %d activations per row per refresh window;\n"+
		"deltas are against the same configuration with mitigation off.\n", hammerMitThreshold), nil
}
