package sim

import (
	"encoding/csv"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pradram/internal/memctrl"
	"pradram/internal/obs"
)

// This file extends the determinism suite to the telemetry layer: every
// probe is a read-only view, so a run with the recorder and event trace
// attached must produce bit-identical Results to a bare run — that is the
// invariant that lets telemetry ship enabled in experiment campaigns
// without a validation pass.

// tinyObsConfig is a telemetry-heavy budget-sized run.
func tinyObsConfig(workload string, scheme memctrl.Scheme) Config {
	cfg := DefaultConfig(workload)
	cfg.Scheme = scheme
	cfg.InstrPerCore = 12_000
	cfg.WarmupPerCore = 12_000
	return cfg
}

func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	for _, scheme := range []memctrl.Scheme{memctrl.Baseline, memctrl.PRA} {
		bare, err := RunOne(tinyObsConfig("GUPS", scheme))
		if err != nil {
			t.Fatal(err)
		}

		cfg := tinyObsConfig("GUPS", scheme)
		cfg.Obs = ObsConfig{EpochCycles: 5_000, EventLevel: obs.LevelCmd}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		instrumented, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(bare, instrumented) {
			t.Errorf("%v: telemetry perturbed the result:\nbare:         %+v\ninstrumented: %+v",
				scheme, bare, instrumented)
		}
		// The telemetry must actually have recorded something, or the
		// comparison above proves nothing.
		if s.Recorder() == nil || len(s.Recorder().Snapshot().Rows) == 0 {
			t.Errorf("%v: recorder captured no epochs", scheme)
		}
		if len(s.Events().Events()) == 0 {
			t.Errorf("%v: event log captured nothing at cmd level", scheme)
		}
	}
}

// TestTimelineColumnsConsistent cross-checks the epoch time-series against
// the run's own Result: per-bank ACT deltas summed over all epochs and
// banks must equal the device's total activation count, and the
// granularity histogram columns must sum to the same total.
func TestTimelineColumnsConsistent(t *testing.T) {
	t.Parallel()
	cfg := tinyObsConfig("GUPS", memctrl.PRA)
	cfg.Obs = ObsConfig{EpochCycles: 5_000}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recorder()
	snap := rec.Snapshot()

	sumCol := func(name string) float64 {
		c := slices.Index(snap.Header, name)
		if c < 0 {
			t.Fatalf("column %q missing", name)
		}
		var sum float64
		for _, row := range snap.Rows {
			sum += row[c]
		}
		return sum
	}

	bankAct := regexp.MustCompile(`^ch\d+_r\d+_b\d+_act$`)
	var actTotal, bankCols float64
	for _, name := range snap.Header {
		if bankAct.MatchString(name) {
			actTotal += sumCol(name)
			bankCols++
		}
	}
	if bankCols == 0 {
		t.Fatal("no per-bank ACT columns registered")
	}
	if want := float64(res.Dev.Activations()); actTotal != want {
		t.Errorf("per-bank ACT columns sum to %v, device counted %v", actTotal, want)
	}

	var granTotal float64
	for g := 1; g <= 8; g++ {
		granTotal += sumCol("act_gran_" + string(rune('0'+g)))
	}
	if want := float64(res.Dev.Activations()); granTotal != want {
		t.Errorf("granularity histogram sums to %v, device counted %v", granTotal, want)
	}

	if sumCol("reads_served") != float64(res.Ctrl.ReadsServed) {
		t.Errorf("reads_served column sums to %v, want %v", sumCol("reads_served"), res.Ctrl.ReadsServed)
	}
	if sumCol("energy_total_pj") != res.Energy.Total() {
		t.Errorf("energy_total_pj column sums to %v, want %v", sumCol("energy_total_pj"), res.Energy.Total())
	}
	if sumCol("dirty_words_overflow") != 0 {
		t.Error("DirtyWords histogram overflowed: bucket range is wrong")
	}

	// The CSV dump must be machine-parseable with a standard reader and
	// rectangular.
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV not parseable: %v", err)
	}
	if len(rows) != len(snap.Rows)+1 {
		t.Errorf("CSV has %d rows, want %d epochs + header", len(rows), len(snap.Rows))
	}
	for i, r := range rows {
		if len(r) != len(snap.Header) {
			t.Fatalf("CSV row %d has %d cells, header has %d", i, len(r), len(snap.Header))
		}
	}
}

// TestExperimentOutputIdenticalWithTelemetry is the campaign-level
// guarantee behind shipping praexp with its progress line always on: a
// runner with progress tracking must emit byte-identical tables to a bare
// runner. (That a run's own telemetry cannot perturb its Result is held at
// the System level, above and in skip_test.go.)
func TestExperimentOutputIdenticalWithTelemetry(t *testing.T) {
	t.Parallel()
	e, err := ExperimentByID("powerband")
	if err != nil {
		t.Fatal(err)
	}
	bareOut, err := NewRunner(tinyOpt(4)).RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}

	opt := tinyOpt(4)
	opt.Progress = obs.NewProgress()
	r := NewRunner(opt)
	instrOut, err := r.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}

	if bareOut != instrOut {
		t.Errorf("progress tracking changed experiment output:\n--- bare ---\n%s\n--- instrumented ---\n%s", bareOut, instrOut)
	}
	snap := opt.Progress.Snapshot()
	if snap.Total == 0 || snap.Done != snap.Total || snap.InFlight != 0 {
		t.Errorf("progress inconsistent after campaign: %+v", snap)
	}

	// Re-asserting the same keys (praexp warms the whole campaign, then
	// each experiment precomputes its own set again) must not inflate the
	// progress total: everything is memoized.
	if err := r.Precompute(e.runs()); err != nil {
		t.Fatal(err)
	}
	if again := opt.Progress.Snapshot(); again.Total != snap.Total {
		t.Errorf("repeated Precompute inflated progress total: %d -> %d", snap.Total, again.Total)
	}
}
