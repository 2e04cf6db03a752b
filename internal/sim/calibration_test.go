package sim

import (
	"math"
	"sync"
	"testing"

	"pradram/internal/memctrl"
	"pradram/internal/workload"
)

// The calibration suite holds the scoreboard's banded rows (the paper's
// per-benchmark numbers of Table 1 and Figure 3 and the headline results of
// Figures 10-13) and the single-core warm method at the EXPERIMENTS.md
// budget. These runs are slow; `go test -short` skips them.

var (
	calRunner     *Runner
	calRunnerOnce sync.Once
)

// calibrationRunner returns a package-wide shared runner so the
// calibration tests reuse each other's (memoized) simulation runs.
func calibrationRunner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("calibration runs are slow; skipped with -short")
	}
	calRunnerOnce.Do(func() {
		// The same budget the EXPERIMENTS.md regeneration uses: the 800k
		// warmup matters for the slowest-warming stream (libquantum's
		// register array only starts evicting near 700k instructions).
		calRunner = NewRunner(ExpOptions{Instr: 250_000, Warmup: 800_000, Seed: 1})
	})
	return calRunner
}

// TestCalibrationScoreboard holds every banded scoreboard row, one subtest
// per artifact. Each row reads exactly the runs its declaration pass names,
// from the shared calibration runner, and is judged by the scoreboard's own
// verdict.
func TestCalibrationScoreboard(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	var artifacts []string
	banded := make(map[string][]target)
	for _, tg := range targets() {
		if tg.band == nil {
			continue
		}
		if banded[tg.artifact] == nil {
			artifacts = append(artifacts, tg.artifact)
		}
		banded[tg.artifact] = append(banded[tg.artifact], tg)
	}
	for _, a := range artifacts {
		t.Run(a, func(t *testing.T) {
			t.Parallel()
			for _, tg := range banded[a] {
				var keys []runKey
				tg.measure(runSet{exp: "scoreboard", read: &keys})
				rs, err := r.finished("scoreboard", keys)
				if err != nil {
					t.Fatal(err)
				}
				if v := tg.measure(rs); tg.verdict(v) != "holds" {
					t.Errorf("%s = %.4g, want %s (paper %.4g)", tg.quantity, v, tg.band.text, tg.paper)
				}
			}
		})
	}
}

// TestCalibrationWarmMethod holds the Runner's single-core warm to a fully
// detailed warm of the same budget: each Table 1 benchmark's baseline
// cycles agree within 2 % and every Table 1 cell within 0.5 pp.
func TestCalibrationWarmMethod(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	cells := func(res Result) [4]float64 { // the write columns are 100 minus the read ones
		return [4]float64{100 * res.RowHitRateRead(), 100 * res.RowHitRateWrite(),
			100 * res.ReadTrafficShare(), 100 * res.ReadActShare()}
	}
	names := [4]string{"read hit rate", "write hit rate", "read traffic share", "read activation share"}
	for _, b := range benchOrder {
		got, err := r.Run(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(b)
		cfg.ActiveCores, cfg.InstrPerCore, cfg.WarmupPerCore, cfg.Seed = 1, 250_000, 800_000, 1
		want, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := float64(got.Cycles)/float64(want.Cycles) - 1; math.Abs(d) > 0.02 {
			t.Errorf("%s: cycles %d, detailed warm %d (%+.2f%%, want within 2%%)", b, got.Cycles, want.Cycles, 100*d)
		}
		g, w := cells(got), cells(want)
		for i, name := range names {
			if math.Abs(g[i]-w[i]) > 0.5 {
				t.Errorf("%s: %s %.2f%%, detailed warm %.2f%% (want within 0.5 pp)", b, name, g[i], w[i])
			}
		}
	}
}

func TestCalibrationWorkloadSetComplete(t *testing.T) {
	t.Parallel()
	if got := len(workloadOrder()); got != 14 {
		t.Fatalf("evaluation set has %d workloads, want 14", got)
	}
	for _, w := range workloadOrder() {
		if _, err := workload.Set(w, 4); err != nil {
			t.Errorf("workload %s unavailable: %v", w, err)
		}
	}
}
