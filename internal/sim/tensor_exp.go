package sim

import (
	"fmt"

	"pradram/internal/memctrl"
	"pradram/internal/stats"
	"pradram/internal/workload"
)

// The tensor-locality experiment (DESIGN.md §4j): the three loop
// permutations of the tensor/conv streaming generator touch the same set
// of rows in different orders, so their open-page activation counts are
// analytically predictable — segments × ceil(run/MaxRowHits) per epoch.
// The experiment runs each permutation through the full stack and reports
// the measured activation rate next to the closed form, plus what the
// locality difference is worth in row hits and DRAM power under Baseline
// and PRA.

// tensorSchemes spans the paper's axis on the tensor streams.
var tensorSchemes = []memctrl.Scheme{memctrl.Baseline, memctrl.PRA}

func tensorKey(w string, s memctrl.Scheme) runKey {
	// One active core keeps each tensor's bank private (co-runs map
	// different cores onto overlapping banks, which would break the
	// per-bank open-row accounting the closed form relies on), and the
	// open-page policy is where the ceil(run/MaxRowHits) law holds.
	return newKey(w, s, memctrl.OpenPage, 1)
}

func keysTensor() []runKey {
	var keys []runKey
	for _, w := range workload.TensorNames() {
		for _, s := range tensorSchemes {
			keys = append(keys, tensorKey(w, s))
		}
	}
	return keys
}

// ExpTensor regenerates the loop-permutation locality table. The analytic
// column is the oracle the correctness suite checks exactly (per bank,
// per row) under a refresh-free controller; here refresh is live, so the
// measured rate may sit a hair above it — every REF closes the open rows
// and the next access to each re-activates.
func ExpTensor(rs runSet) (string, error) {
	cap := memctrl.DefaultConfig().MaxRowHits
	t := stats.NewTable("tensor", "scheme", "ACTs/kAcc analytic", "ACTs/kAcc measured",
		"row hit%", "power mW", "cycles")
	for _, w := range workload.TensorNames() {
		spec, err := workload.TensorSpecFor(w)
		if err != nil {
			return "", err
		}
		acts, _, err := workload.TensorEpochActs(w, cap)
		if err != nil {
			return "", err
		}
		// Accesses per epoch: three tensor operands touched per step.
		analytic := 1000 * float64(acts) / float64(3*spec.StepsPerEpoch())
		for _, s := range tensorSchemes {
			res := rs.get(tensorKey(w, s))
			served := res.Ctrl.ReadsServed + res.Ctrl.WritesServed
			measured := 1000 * float64(res.Dev.Activations()) / float64(served)
			t.Row(w, s.String(),
				fmt.Sprintf("%.1f", analytic),
				fmt.Sprintf("%.1f", measured),
				fmt.Sprintf("%.1f", 100*res.RowHitRateTotal()),
				res.AvgPowerMW(),
				res.Cycles)
		}
	}
	return t.String() + fmt.Sprintf("\nAnalytic: closed-form open-page activations per 1000 accesses at MaxRowHits=%d\n"+
		"(segments x ceil(run/cap) per epoch; the oracle test checks it exactly per bank\n"+
		"and row with refresh off). Loop order alone moves the activation rate. PRA\n"+
		"matches baseline here by design: the streams are read-only and PRA narrows\n"+
		"write activations only.\n", cap), nil
}
