package sim

import (
	"math"
	"sync"
	"testing"

	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/workload"
)

// The calibration suite checks the simulated workload characteristics
// against the paper's published per-benchmark numbers (Table 1, Figure 3)
// and the headline evaluation results (Figures 11-13) within documented
// tolerance bands. These runs are slow; `go test -short` skips them.

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

// within asserts |got - want| <= tol, all in percentage points.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.1f, want %.1f +- %.1f (paper)", name, got, want, tol)
	}
}

func TestCalibrationTable1(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	// Tolerances: hit rates are emergent from generator + controller
	// interplay; traffic splits are structural and tighter. libquantum's
	// write hit rate is a documented deviation (our eviction stream is
	// perfectly sequential; see EXPERIMENTS.md) and gets a wide band.
	tols := map[string][3]float64{ // hitR, trafR, actR tolerances (pp)
		"bzip2":      {8, 6, 8},
		"lbm":        {15, 6, 8},
		"libquantum": {8, 5, 20},
		"mcf":        {8, 5, 8},
		"omnetpp":    {8, 8, 10},
		"em3d":       {6, 5, 5},
		"GUPS":       {6, 5, 6},
		"LinkedList": {6, 5, 5},
	}
	for _, b := range benchOrder {
		res, err := r.Run(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		if err != nil {
			t.Fatal(err)
		}
		p := paperTable1[b]
		tol := tols[b]
		within(t, b+" read hit rate", 100*res.RowHitRateRead(), p[0], tol[0])
		within(t, b+" read traffic share", 100*res.ReadTrafficShare(), p[2], tol[1])
		within(t, b+" read activation share", 100*res.ReadActShare(), p[4], tol[2])
		// Write hit rates: every benchmark except lbm and libquantum is
		// near zero in the paper; enforce the shape.
		switch b {
		case "libquantum":
			if 100*res.RowHitRateWrite() < 30 {
				t.Errorf("libquantum write hits must be high, got %.1f%%", 100*res.RowHitRateWrite())
			}
		case "lbm":
			within(t, "lbm write hit rate", 100*res.RowHitRateWrite(), 18, 12)
		default:
			if got := 100 * res.RowHitRateWrite(); got > 6 {
				t.Errorf("%s write hit rate = %.1f%%, want ~1%% (paper)", b, got)
			}
		}
	}
}

func TestCalibrationFig3DirtyWords(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	// Structural expectations from the paper's Figure 3, by store model.
	for _, b := range []string{"GUPS", "LinkedList", "mcf"} {
		res, err := r.Run(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		if err != nil {
			t.Fatal(err)
		}
		if share := res.Cache.DirtyWords.Share(1); share < 0.9 {
			t.Errorf("%s: 1-dirty-word share = %.2f, want > 0.9", b, share)
		}
	}
	res, err := r.Run(newKey("libquantum", memctrl.Baseline, memctrl.RelaxedClose, 1))
	if err != nil {
		t.Fatal(err)
	}
	if share := res.Cache.DirtyWords.Share(8); share < 0.9 {
		t.Errorf("libquantum: fully-dirty share = %.2f, want > 0.9", share)
	}
	res, err = r.Run(newKey("lbm", memctrl.Baseline, memctrl.RelaxedClose, 1))
	if err != nil {
		t.Fatal(err)
	}
	if mean := res.Cache.DirtyWords.Mean(); mean < 1.5 || mean > 5 {
		t.Errorf("lbm: mean dirty words = %.2f, want 2-4", mean)
	}
}

func TestCalibrationFig11GranularityMix(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	// Paper (relaxed policy, 14-workload average): 1/8-row 39%, full 58%,
	// everything between small. Average over our 14 workloads.
	var oneEighth, full float64
	var n int
	for _, w := range workloadOrder() {
		res, err := r.Run(newKey(w, memctrl.PRA, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		oneEighth += res.GranularityShare(1)
		full += res.GranularityShare(8)
		n++
	}
	oneEighth, full = 100*oneEighth/float64(n), 100*full/float64(n)
	within(t, "1/8-row activation share", oneEighth, 39, 15)
	within(t, "full-row activation share", full, 58, 15)
}

func TestCalibrationFig12HeadlineSavings(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	var actSum, ioSum, totSum float64
	var n int
	for _, w := range workloadOrder() {
		base, err := r.Run(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		pra, err := r.Run(newKey(w, memctrl.PRA, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		actSum += (pra.Energy[power.CompActPre] / pra.RuntimeNs()) / (base.Energy[power.CompActPre] / base.RuntimeNs())
		ioSum += (pra.Energy.IO() / pra.RuntimeNs()) / (base.Energy.IO() / base.RuntimeNs())
		totSum += pra.AvgPowerMW() / base.AvgPowerMW()
		n++
	}
	fn := float64(n)
	// Paper: ACT power -34% avg, I/O power -45% avg, total power -23% avg.
	within(t, "PRA ACT power reduction %", 100*(1-actSum/fn), 34, 12)
	within(t, "PRA I/O power reduction %", 100*(1-ioSum/fn), 45, 15)
	within(t, "PRA total power reduction %", 100*(1-totSum/fn), 23, 10)
}

func TestCalibrationFig13Performance(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	// PRA: near-zero performance loss (paper -0.8% avg, max -4.8%).
	// FGA: significant loss (paper -14% avg). Check on a representative
	// subset to bound runtime.
	subset := []string{"libquantum", "GUPS", "MIX1", "MIX2"}
	var praSum, fgaSum float64
	for _, w := range subset {
		base, err := r.Run(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		pra, err := r.Run(newKey(w, memctrl.PRA, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		fga, err := r.Run(newKey(w, memctrl.FGA, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		praSum += pra.SumIPC() / base.SumIPC()
		fgaSum += fga.SumIPC() / base.SumIPC()
	}
	praPerf := praSum / float64(len(subset))
	fgaPerf := fgaSum / float64(len(subset))
	if praPerf < 0.92 {
		t.Errorf("PRA relative performance = %.3f, want > 0.92 (paper: -0.8%% avg)", praPerf)
	}
	if fgaPerf > 0.95 {
		t.Errorf("FGA relative performance = %.3f, want < 0.95 (paper: -14%% avg)", fgaPerf)
	}
	if fgaPerf >= praPerf {
		t.Errorf("FGA (%.3f) must lose more performance than PRA (%.3f)", fgaPerf, praPerf)
	}
}

func TestCalibrationFig10FalseHits(t *testing.T) {
	t.Parallel()
	r := calibrationRunner(t)
	// Paper: false read hits are rare (avg 0.04%, max 0.26%).
	var worst float64
	for _, w := range workloadOrder() {
		res, err := r.Run(newKey(w, memctrl.PRA, memctrl.RelaxedClose, 4))
		if err != nil {
			t.Fatal(err)
		}
		if fr := 100 * res.FalseHitRateRead(); fr > worst {
			worst = fr
		}
	}
	if worst > 2.0 {
		t.Errorf("worst false read-hit rate = %.2f%%, want < 2%% (paper max 0.26%%)", worst)
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
