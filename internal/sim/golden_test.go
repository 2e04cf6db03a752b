package sim

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pradram/internal/power"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got with testdata/<name>, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// checkExperimentGolden pins the exact bytes of one praexp experiment table
// as testdata/<id>.golden, so no refactor of the experiment layer — parallel
// execution order above all — can reorder, reformat or move a published
// number without a deliberate golden update
// (go test ./internal/sim -run Golden -update). The table is rendered
// through a sequential and a four-worker runner: the bytes must agree with
// each other and with the file. It returns the sequential runner, whose memo
// holds every run the table used.
func checkExperimentGolden(t *testing.T, id string, opt ExpOptions) *Runner {
	t.Helper()
	e, err := ExperimentByID(id)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 1
	seq := NewRunner(opt)
	seqOut, err := seq.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	parOut, err := NewRunner(opt).RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	if seqOut != parOut {
		t.Fatalf("%s output depends on the worker count:\n-j1:\n%s\n-j4:\n%s", id, seqOut, parOut)
	}
	checkGolden(t, id+".golden", seqOut)
	return seq
}

// TestFig9Golden pins Figure 9, which is analytic (pure energy model, no
// simulation): its bytes are stable across budgets, seeds and worker counts.
func TestFig9Golden(t *testing.T) {
	t.Parallel()
	checkExperimentGolden(t, "fig9", ExpOptions{Instr: 1000})
}

// TestHammerGolden pins the hammer experiment's mitigation-overhead table.
// Unlike fig9 it comes from real simulation — the mitigation scheme and the
// adversarial generators are under the pin too — so the bytes are specific
// to this small budget.
func TestHammerGolden(t *testing.T) {
	t.Parallel()
	checkExperimentGolden(t, "hammer", ExpOptions{Instr: 4_000, Seed: 1})
}

// TestPowerBandGolden is the energy-accounting gate: the powerband
// experiment's calibrated min/nominal/max table (the Ghose et al. band,
// arXiv:1807.05102) at a small fixed budget. The simulator is deterministic,
// so a change that shifts any power-model number — an IDD constant, a
// correction factor, the background accounting under the power-down FSM —
// fails here until the table is regenerated with -update and the diff
// committed, which makes every power-model change visible in review. It
// also holds the structure of the bands on simulated (not synthetic)
// breakdowns: ordered, and the "none" calibration the identity.
func TestPowerBandGolden(t *testing.T) {
	t.Parallel()
	r := checkExperimentGolden(t, "powerband", ExpOptions{Instr: 60_000, Warmup: 20_000, Seed: 1})
	for _, k := range powerBandRuns() {
		res, err := r.Run(k) // memoized by the table above
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"none", "vendor", "ghose", "ghose:10"} {
			cal, err := power.ParseCalibration(spec)
			if err != nil {
				t.Fatal(err)
			}
			band := cal.Total(res.Energy).Scale(1 / res.RuntimeNs())
			if band.Min > band.Nom || band.Nom > band.Max {
				t.Errorf("%s/%s: malformed band %+v", k, spec, band)
			}
			// One part in 1e9 absorbs the reassociated division.
			if raw := res.AvgPowerMW(); spec == "none" && (band.Spread() != 0 || math.Abs(band.Nom-raw) > 1e-9*raw) {
				t.Errorf("%s: 'none' band %+v is not the uncalibrated %v mW", k, band, raw)
			}
		}
	}
}
