package sim

import (
	"fmt"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/stats"
	"pradram/internal/workload"
)

// sweepSchemes is the pair every point of the parameter sweeps compares,
// each run under the sweep budget (runKey.sweep).
var sweepSchemes = []memctrl.Scheme{memctrl.Baseline, memctrl.PRA}

// writeShares is the x-axis of the second sensitivity sweep (one dirty word,
// rising write share); the first runs 1..8 dirty words at a 0.9 write share.
// They meet at (1, 0.9): one simulation pair, not two.
var writeShares = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

func sensitivityKey(s memctrl.Scheme, dirtyWords int, writeProb float64) runKey {
	k := newKey(fmt.Sprintf("synthetic-d%d", dirtyWords), s, memctrl.RelaxedClose, 0)
	k.synthetic = workload.SyntheticParams{DirtyWords: dirtyWords, WriteProb: writeProb, ComputeGap: 4}
	k.sweep = true
	return k
}

func keysSensitivity() []runKey {
	var keys []runKey
	for _, s := range sweepSchemes {
		for d := 1; d <= 8; d++ {
			keys = append(keys, sensitivityKey(s, d, 0.9))
		}
		for _, wp := range writeShares {
			keys = append(keys, sensitivityKey(s, 1, wp))
		}
	}
	return keys
}

// ExpSensitivity sweeps the fundamental PRA variable — dirty words per
// written line — on a controlled synthetic workload, plus a write-share
// sweep. It answers "how much saving is left as lines get dirtier", the
// curve implied by Figure 3 + Figure 12: PRA's saving comes entirely from
// lines with few dirty words.
func ExpSensitivity(rs runSet) (string, error) {
	var b []byte
	out := stats.NewTable("dirty words", "PRA power", "PRA ACT gran", "1/8..8/8 shares %")
	for d := 1; d <= 8; d++ {
		base, pra := rs.get(sensitivityKey(memctrl.Baseline, d, 0.9)), rs.get(sensitivityKey(memctrl.PRA, d, 0.9))
		shares := ""
		for g := 1; g <= 8; g++ {
			shares += fmt.Sprintf("%4.0f", 100*pra.GranularityShare(g))
		}
		out.Row(d,
			stats.Ratio(pra.AvgPowerMW(), base.AvgPowerMW()),
			fmt.Sprintf("%.2f/8", pra.Dev.AvgGranularity()),
			shares)
	}
	b = append(b, out.String()...)
	b = append(b, "\nPRA saving shrinks monotonically as lines get dirtier; at 8 dirty words\nonly the read-side behaviour remains (activations are full rows).\n\n"...)

	wr := stats.NewTable("write prob", "PRA power", "write traffic %")
	for _, wp := range writeShares {
		base, pra := rs.get(sensitivityKey(memctrl.Baseline, 1, wp)), rs.get(sensitivityKey(memctrl.PRA, 1, wp))
		wr.Row(wp,
			stats.Ratio(pra.AvgPowerMW(), base.AvgPowerMW()),
			100*(1-base.ReadTrafficShare()))
	}
	b = append(b, wr.String()...)
	b = append(b, "\nThe saving grows with the write share of DRAM traffic — PRA only acts on\nwrites (the paper's asymmetric design).\n"...)
	return string(b), nil
}

func speedGradeKey(s memctrl.Scheme, grade string) runKey {
	k := newKey("GUPS", s, memctrl.RelaxedClose, 0)
	k.grade, k.sweep = grade, true
	return k
}

func keysSpeedGrades() []runKey {
	var keys []runKey
	for _, g := range dram.SpeedGrades() {
		for _, s := range sweepSchemes {
			keys = append(keys, speedGradeKey(s, g.Name))
		}
	}
	return keys
}

// ExpSpeedGrades sweeps DDR3 data-rate bins on GUPS: PRA's relative saving
// across timing regimes. Chip power values are held at the DDR3-1600
// figures, so the sweep isolates the timing effect.
func ExpSpeedGrades(rs runSet) (string, error) {
	t := stats.NewTable("grade", "base mW", "pra mW", "pra/base", "base sumIPC", "pra sumIPC")
	for _, g := range dram.SpeedGrades() {
		base, pra := rs.get(speedGradeKey(memctrl.Baseline, g.Name)), rs.get(speedGradeKey(memctrl.PRA, g.Name))
		t.Row(g.Name, base.AvgPowerMW(), pra.AvgPowerMW(),
			stats.Ratio(pra.AvgPowerMW(), base.AvgPowerMW()),
			base.SumIPC(), pra.SumIPC())
	}
	return t.String() + "\nPRA's relative saving holds across DDR3 bins; absolute power scales with\nthe achievable activation rate of each timing set.\n", nil
}
