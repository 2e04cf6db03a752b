package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pradram/internal/memctrl"
	"pradram/internal/workload"
)

// This file is the concurrent half of the experiment layer. Every RunOne
// is a pure function of its configuration, so an experiment campaign is
// embarrassingly parallel: the runner executes an experiment's declared
// runKey set across a worker pool, then the formatter walks its (fixed,
// paper-order) iteration looking results up. Execution order can therefore
// never reorder or perturb a table — the determinism test and the golden
// tests enforce exactly that.

// Precompute executes the given configurations across the runner's worker
// pool, one wave. Duplicate keys are collapsed before dispatch (Run would
// dedup them anyway, but collapsing keeps pool slots busy with distinct
// work), and keys already memoized are skipped so opt.Progress sees only
// real pending work — repeated Precompute calls over overlapping key sets
// ("-exp all" warms once, then each experiment re-asserts its keys) must
// not inflate the total. After a simulation fails, runs not yet started are
// skipped; its error is returned once every in-flight run has finished.
func (r *Runner) Precompute(keys []runKey) error {
	seen := make(map[string]bool, len(keys))
	var unique []runKey
	var fps []string // each unique key's warmup fingerprint, declared
	for _, k := range keys {
		s := k.String()
		if _, memoized := r.results.get(s); !memoized && !seen[s] {
			seen[s] = true
			unique = append(unique, k)
			fps = append(fps, r.ckptDeclare(r.config(k)))
		}
	}
	prog := r.opt.Progress
	prog.AddTotal(int64(len(unique)))

	var failure atomic.Pointer[error] // the first simulation error
	r.each(len(unique), func(i int) {
		defer r.ckptRelease(fps[i])
		if failure.Load() != nil {
			return
		}
		prog.Start()
		defer prog.Done()
		if _, err := r.Run(unique[i]); err != nil {
			failure.CompareAndSwap(nil, &err)
		}
	})
	if err := failure.Load(); err != nil {
		return *err
	}
	return nil
}

// each calls fn(0) … fn(n-1) across the runner's worker pool and returns
// when all have finished. The default pool tracks GOMAXPROCS rather than
// NumCPU, so an operator capping the process caps the campaign too.
func (r *Runner) each(n int, fn func(i int)) {
	workers := r.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// RunSystems takes systems the caller built (New) and has not run through
// the worker pool and the checkpoint layer, one wave, and returns each one's
// result or error in input order; a failure does not stop the others. It is
// the entry for a driver that needs the systems themselves — to publish a
// recorder before the run starts, to export a finished run's timeline,
// events or spans — where Run and Precompute only hand back Results.
func (r *Runner) RunSystems(systems []*System) ([]Result, []error) {
	fps := make([]string, len(systems))
	for i, s := range systems {
		fps[i] = r.ckptDeclare(s.cfg, nil)
	}
	prog := r.opt.Progress
	prog.AddTotal(int64(len(systems)))
	results, errs := make([]Result, len(systems)), make([]error, len(systems))
	r.each(len(systems), func(i int) {
		defer r.ckptRelease(fps[i])
		prog.Start()
		defer prog.Done()
		if results[i], errs[i] = r.runSystem(systems[i]); errs[i] == nil {
			r.sims.Add(1)
		}
	})
	return results, errs
}

// finished executes whichever of the keys the runner has not memoized
// (Precompute) and returns their results as experiment exp's run set.
func (r *Runner) finished(exp string, keys []runKey) (runSet, error) {
	if err := r.Precompute(keys); err != nil {
		return runSet{}, err
	}
	rs := runSet{exp: exp, res: make(map[string]Result, len(keys))}
	for _, k := range keys {
		s := k.String()
		rs.res[s], _ = r.results.get(s)
	}
	return rs, nil
}

// RunExperiment is the one path from an experiment to its table: execute
// the declared runs, then hand the formatter exactly those results. A
// formatter that reads a run its Keys did not declare ends the experiment
// with an error naming both.
func (r *Runner) RunExperiment(e Experiment) (out string, err error) {
	var keys []runKey
	if e.Keys != nil {
		keys = e.Keys()
	}
	rs, err := r.finished(e.ID, keys)
	if err != nil {
		return "", err
	}
	defer func() {
		switch p := recover().(type) {
		case nil:
		case undeclaredRead:
			out, err = "", p
		default:
			panic(p)
		}
	}()
	return e.format(rs)
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

// aloneKeys enumerates the Equation-3 denominator runs (each app of each
// workload alone on the baseline) that normalizedWS reads; an unknown
// workload contributes none and fails its own run.
func aloneKeys(workloads []string, policy memctrl.Policy) []runKey {
	var keys []runKey
	for _, w := range workloads {
		apps, _ := workload.Set(w, DefaultConfig(w).Cores)
		for _, app := range apps {
			keys = append(keys, aloneKey(app, policy))
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
