package sim

import (
	"testing"

	"pradram/internal/memctrl"
)

func TestAnalyticEstimateAgreesRoughly(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation-backed; skipped with -short")
	}
	cfg := quickCfg("GUPS")
	cfg.InstrPerCore = 60_000
	cfg.WarmupPerCore = 120_000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := AnalyticEstimate(res)
	if err != nil {
		t.Fatal(err)
	}
	simMW := res.AvgPowerMW()
	ratio := est.Total() / simMW
	// The closed-form model and the event-driven accounting share
	// parameters: totals must agree closely.
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("analytic/simulated power ratio = %.3f, want within 15%%", ratio)
	}
	// The activation component especially (same P_ACT, same counts).
	actSim := res.Energy[0] / res.RuntimeNs()
	if actSim > 0 {
		if r := est[0] / actSim; r < 0.9 || r > 1.1 {
			t.Errorf("ACT component ratio = %.3f", r)
		}
	}
}

func TestAnalyticEstimateRejectsBadCounters(t *testing.T) {
	t.Parallel()
	var res Result
	res.Ctrl.ReadsServed = -5 // impossible counter
	res.Cycles = 100
	if _, err := AnalyticEstimate(res); err == nil {
		t.Error("negative rates must propagate a validation error")
	}
}

func TestModelCheckExperimentTiny(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation-backed; skipped with -short")
	}
	e, err := ExperimentByID("modelcheck")
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewRunner(ExpOptions{Instr: 20_000, Warmup: 30_000, Seed: 1}).RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 100 {
		t.Error("model-check output too short")
	}
	_ = memctrl.Baseline
}
