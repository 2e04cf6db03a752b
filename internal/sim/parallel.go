package sim

import (
	"runtime"
	"sync"

	"pradram/internal/memctrl"
	"pradram/internal/workload"
)

// This file is the concurrent half of the experiment layer. Every RunOne
// is a pure function of its configuration, so an experiment campaign is
// embarrassingly parallel: the runner precomputes an experiment's full
// runKey set across a worker pool, then the formatting pass walks the
// (fixed, paper-order) iteration and reads the memo. Execution order can
// therefore never reorder or perturb a table — the determinism test and
// the fig9 golden test enforce exactly that.

// workers resolves the configured pool size. The default tracks
// runtime.GOMAXPROCS(0) rather than NumCPU so an operator capping the
// process with the GOMAXPROCS environment variable caps the campaign too.
func (r *Runner) workers() int {
	if r.opt.Workers > 0 {
		return r.opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Precompute executes the given configurations across the runner's worker
// pool so a subsequent formatting pass finds every result memoized.
// Duplicate keys are collapsed before dispatch (the singleflight layer in
// Run would dedup them anyway, but collapsing keeps pool slots busy with
// distinct work), and keys already memoized are skipped so opt.Progress
// sees only real pending work — repeated Precompute calls over overlapping
// key sets ("-exp all" warms once, then each experiment re-asserts its
// keys) must not inflate the total. The first simulation error is returned
// after every in-flight run has finished.
func (r *Runner) Precompute(keys []runKey) error {
	seen := make(map[string]bool, len(keys))
	unique := keys[:0:0]
	r.mu.Lock()
	for _, k := range keys {
		s := k.String()
		if _, memoized := r.cache[s]; !memoized && !seen[s] {
			seen[s] = true
			unique = append(unique, k)
		}
	}
	r.mu.Unlock()
	prog := r.opt.Progress
	prog.AddTotal(int64(len(unique)))
	run := func(k runKey) error {
		prog.Start()
		defer prog.Done()
		_, err := r.Run(k)
		return err
	}

	workers := r.workers()
	if workers > len(unique) {
		workers = len(unique)
	}
	if workers <= 1 {
		for _, k := range unique {
			if err := run(k); err != nil {
				return err
			}
		}
		return nil
	}

	jobs := make(chan runKey)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if err := run(k); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, k := range unique {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// RunExperiment precomputes an experiment's key set in parallel, then
// runs its formatting pass against the warm memo.
func (r *Runner) RunExperiment(e Experiment) (string, error) {
	if e.Keys != nil {
		if err := r.Precompute(e.Keys()); err != nil {
			return "", err
		}
	}
	return e.Run(r)
}

// PrecomputeExperiments warms the memo for a batch of experiments in one
// wave, so a full campaign ("-exp all") parallelizes across experiment
// boundaries too instead of paying a pool drain per experiment.
func (r *Runner) PrecomputeExperiments(exps []Experiment) error {
	var keys []runKey
	for _, e := range exps {
		if e.Keys != nil {
			keys = append(keys, e.Keys()...)
		}
	}
	return r.Precompute(keys)
}

// --- per-experiment key enumeration ---

// crossKeys builds the workload x scheme product at one policy and active
// core count.
func crossKeys(workloads []string, schemes []memctrl.Scheme, policy memctrl.Policy, active int) []runKey {
	keys := make([]runKey, 0, len(workloads)*len(schemes))
	for _, w := range workloads {
		for _, s := range schemes {
			keys = append(keys, newKey(w, s, policy, active))
		}
	}
	return keys
}

// aloneKeys enumerates the Equation-3 denominator runs (each unique app of
// each workload alone on the baseline) that NormalizedWS resolves lazily.
func aloneKeys(workloads []string, policy memctrl.Policy) []runKey {
	var keys []runKey
	seen := make(map[string]bool)
	for _, w := range workloads {
		apps, err := workload.Set(w, DefaultConfig(w).Cores)
		if err != nil {
			continue // the experiment itself will surface the error
		}
		for _, app := range apps {
			if !seen[app] {
				seen[app] = true
				keys = append(keys, newKey(app, memctrl.Baseline, policy, 1))
			}
		}
	}
	return keys
}

// keysBenchBaseline covers the single-core motivational runs shared by
// Table 1, Figure 2, and Figure 3.
func keysBenchBaseline() []runKey {
	return crossKeys(benchOrder, []memctrl.Scheme{memctrl.Baseline}, memctrl.RelaxedClose, 1)
}

func keysFig10() []runKey {
	return crossKeys(workloadOrder(), []memctrl.Scheme{memctrl.Baseline, memctrl.PRA}, memctrl.RelaxedClose, 4)
}

func keysFig11() []runKey {
	keys := crossKeys(workloadOrder(), []memctrl.Scheme{memctrl.PRA}, memctrl.RestrictedClose, 4)
	return append(keys, crossKeys(workloadOrder(), []memctrl.Scheme{memctrl.PRA}, memctrl.RelaxedClose, 4)...)
}

func keysFig12() []runKey {
	return crossKeys(workloadOrder(),
		[]memctrl.Scheme{memctrl.Baseline, memctrl.FGA, memctrl.HalfDRAM, memctrl.PRA},
		memctrl.RelaxedClose, 4)
}

func keysFig13() []runKey {
	return append(keysFig12(), aloneKeys(workloadOrder(), memctrl.RelaxedClose)...)
}

func keysFig14() []runKey {
	keys := crossKeys(workloadOrder(),
		[]memctrl.Scheme{memctrl.Baseline, memctrl.HalfDRAM, memctrl.PRA, memctrl.HalfDRAMPRA},
		memctrl.RestrictedClose, 4)
	return append(keys, aloneKeys(workloadOrder(), memctrl.RestrictedClose)...)
}

func keysFig15() []runKey {
	var keys []runKey
	for _, w := range workloadOrder() {
		for _, s := range []memctrl.Scheme{memctrl.Baseline, memctrl.PRA} {
			k := newKey(w, s, memctrl.RelaxedClose, 4)
			keys = append(keys, k)
			k.dbi = true
			keys = append(keys, k)
		}
	}
	return append(keys, aloneKeys(workloadOrder(), memctrl.RelaxedClose)...)
}

func keysSec3Coverage() []runKey {
	return crossKeys(benchOrder,
		[]memctrl.Scheme{memctrl.Baseline, memctrl.PRA, memctrl.SDS},
		memctrl.RelaxedClose, 1)
}

// ablationWorkloads is the representative spread the ablation study runs
// (a random-access writer, a streaming writer, and a mix).
var ablationWorkloads = []string{"GUPS", "lbm", "MIX2"}

// ablationVariants are the study's rows: the full published scheme, then
// PRA with one design element disabled at a time.
var ablationVariants = []struct {
	name  string
	knobs memctrl.Knobs
}{
	{"pra", memctrl.Knobs{Scheme: memctrl.PRA}},
	{"pra-no-partial-io", memctrl.Knobs{Scheme: memctrl.PRA, NoPartialIO: true}},
	{"pra-no-timing-relax", memctrl.Knobs{Scheme: memctrl.PRA, NoTimingRelax: true}},
	{"pra-free-mask-cycle", memctrl.Knobs{Scheme: memctrl.PRA, NoMaskCycle: true}},
}

func keysAblation() []runKey {
	var keys []runKey
	for _, w := range ablationWorkloads {
		keys = append(keys, newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		for _, v := range ablationVariants {
			keys = append(keys, runKey{workload: w, Knobs: v.knobs, active: 4})
		}
	}
	return keys
}

func keysModelCheck() []runKey {
	keys := make([]runKey, 0, len(modelCheckCases))
	for _, c := range modelCheckCases {
		keys = append(keys, newKey(c.workload, c.scheme, memctrl.RelaxedClose, 4))
	}
	return keys
}
