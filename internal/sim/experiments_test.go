package sim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"pradram/internal/memctrl"
)

func tinyRunner() *Runner {
	return NewRunner(ExpOptions{Instr: 30_000, Warmup: 40_000, Seed: 1})
}

func TestExperimentRegistry(t *testing.T) {
	t.Parallel()
	exps := Experiments()
	if len(exps) != 22 {
		t.Fatalf("have %d experiments, want 22", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.format == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		// Only the three analytic tables may read no simulation.
		if analytic := e.ID == "table2" || e.ID == "table3" || e.ID == "fig9"; (len(e.runs()) == 0) != analytic {
			t.Errorf("experiment %s: declaration pass reads %d runs, analytic is %v", e.ID, len(e.runs()), analytic)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ExperimentByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ExperimentByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestAnalyticExperimentsContent(t *testing.T) {
	t.Parallel()
	out, err := ExpTable2(runSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"288.752", "16.921", "18.016", "11.884"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
	out, err = ExpTable3(runSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"22.2", "3.7", "P_ACT"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
	out, err = ExpFig9(runSet{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "288.752") || !strings.Contains(out, "shared") {
		t.Errorf("fig9 output incomplete:\n%s", out)
	}
}

// tableDigests renders every experiment through RunExperiment on one runner
// at the tinyRunner budget and returns one "id sha-256" line per table.
func tableDigests(workers int) (string, error) {
	opt := tinyRunner().opt
	opt.Workers = workers
	r := NewRunner(opt)
	var b strings.Builder
	for _, e := range Experiments() {
		out, err := r.RunExperiment(e)
		if err != nil {
			return "", fmt.Errorf("%s at -j%d: %w", e.ID, workers, err)
		}
		fmt.Fprintf(&b, "%-11s %x\n", e.ID, sha256.Sum256([]byte(out)))
	}
	return b.String(), nil
}

// TestAllExperimentsRunTiny pins the bytes of every experiment's table as
// testdata/experiments.golden (one digest per table; fig9, hammer and
// powerband also have their text pinned in golden_test.go), rendered by a
// sequential and a four-worker runner, so a change to the experiment layer
// cannot move, reorder or reformat any published number unnoticed.
// Regenerate with -update after an intended change and commit the diff.
func TestAllExperimentsRunTiny(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped with -short")
	}
	type rendered struct {
		digests string
		err     error
	}
	par := make(chan rendered, 1)
	go func() {
		d, err := tableDigests(4)
		par <- rendered{d, err}
	}()
	seq, err := tableDigests(1)
	if err != nil {
		t.Fatal(err)
	}
	p := <-par
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.digests != seq {
		t.Errorf("tables depend on the worker count:\n-j1:\n%s-j4:\n%s", seq, p.digests)
	}
	checkGolden(t, "experiments.golden", seq)
}

func TestRunnerMemoization(t *testing.T) {
	t.Parallel()
	r := tinyRunner()
	k := newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 1)
	a, err := r.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Ctrl != b.Ctrl {
		t.Error("memoized run must return the identical result")
	}
	// Different key must actually rerun and occupy its own cache slot.
	k2 := k
	k2.Scheme = memctrl.PRA
	c, err := r.Run(k2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme != memctrl.PRA {
		t.Error("second key must run the requested scheme")
	}
	if n := len(r.results.vals); n != 2 {
		t.Errorf("run memo holds %d entries, want 2", n)
	}
	if r.Simulations() != 2 {
		t.Errorf("runner executed %d simulations, want 2", r.Simulations())
	}
}

func TestAloneIPCs(t *testing.T) {
	t.Parallel()
	r := tinyRunner()
	for _, app := range []string{"GUPS", "GUPS", "em3d"} {
		ipc, err := r.AloneIPC(app, memctrl.RelaxedClose)
		if err != nil {
			t.Fatal(err)
		}
		if ipc <= 0 || ipc > 8 {
			t.Errorf("%s alone IPC = %v out of range", app, ipc)
		}
	}
	if r.Simulations() != 2 {
		t.Errorf("runner executed %d simulations, want one per unique app", r.Simulations())
	}
}

func TestNormalizedWSIdentity(t *testing.T) {
	t.Parallel()
	k := newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 4)
	rs, err := tinyRunner().finished("test", []runKey{aloneKey("GUPS", memctrl.RelaxedClose), k})
	if err != nil {
		t.Fatal(err)
	}
	base := rs.get(k)
	if ws := rs.normalizedWS("GUPS", base, base, memctrl.RelaxedClose); ws != 1 {
		t.Errorf("self-normalized WS = %v, want 1", ws)
	}
}

// TestUndeclaredReadFails runs an experiment whose formatter reads a second
// run only once the first has a result: the declaration pass, on zero
// Results, never reads it, so the real pass must end the experiment with an
// error naming both, not simulate the run on the side.
func TestUndeclaredReadFails(t *testing.T) {
	t.Parallel()
	first := newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 1)
	second := newKey("GUPS", memctrl.PRA, memctrl.RelaxedClose, 1)
	e := Experiment{ID: "drift", Title: "reads that depend on results", format: func(rs runSet) (string, error) {
		if rs.get(first).Cycles != 0 {
			rs.get(second)
		}
		return "", nil
	}}
	r := NewRunner(tinyOpt(2))
	_, err := r.RunExperiment(e)
	if err == nil {
		t.Fatal("formatter read an undeclared run and the experiment succeeded")
	}
	for _, want := range []string{"drift", second.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if got := r.Simulations(); got != 1 {
		t.Errorf("runner executed %d simulations, want only the declared one", got)
	}
}

func TestRunnerDefaultsApplied(t *testing.T) {
	t.Parallel()
	r := NewRunner(ExpOptions{Instr: -5, Warmup: -5})
	if r.opt.Instr <= 0 || r.opt.Warmup != 0 {
		t.Errorf("runner defaults not applied: %+v", r.opt)
	}
}

func TestAblationKnobsChangeBehaviour(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow; skipped with -short")
	}
	r := tinyRunner()
	full, err := r.Run(newKey("GUPS", memctrl.PRA, memctrl.RelaxedClose, 4))
	if err != nil {
		t.Fatal(err)
	}
	noIO, err := r.Run(runKey{workload: "GUPS", Knobs: memctrl.Knobs{Scheme: memctrl.PRA, NoPartialIO: true}, active: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Without partial I/O the bus carries all 8 words per write.
	if noIO.Dev.WordsWritten <= full.Dev.WordsWritten {
		t.Errorf("no-partial-IO must transfer more words: %d vs %d",
			noIO.Dev.WordsWritten, full.Dev.WordsWritten)
	}
	if noIO.Dev.WordsWritten != noIO.Dev.WordBudget {
		t.Errorf("no-partial-IO must transfer the full budget, got %d of %d",
			noIO.Dev.WordsWritten, noIO.Dev.WordBudget)
	}
	// Activations stay partial (the ablation only disables the transfer
	// saving, not the activation saving).
	if noIO.Dev.AvgGranularity() >= 8 {
		t.Error("no-partial-IO must still activate partially")
	}
}
