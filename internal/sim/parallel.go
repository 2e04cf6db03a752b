package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the concurrent half of the experiment layer. Every RunOne
// is a pure function of its configuration, so an experiment campaign is
// embarrassingly parallel: the runner executes the runKey set an
// experiment's formatter reads (Experiment.runs) across a worker pool, then
// the formatter walks the same (fixed, paper-order) iteration looking
// results up. Execution order can therefore never reorder or perturb a
// table — the determinism test and the golden tests enforce exactly that.

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
	for _, k := range keys {
		s := k.String()
		if _, memoized := r.results.get(s); !memoized && !seen[s] {
			seen[s] = true
			unique = append(unique, k)
		}
	}
	prog := r.opt.Progress
	prog.AddTotal(int64(len(unique)))

	var failure atomic.Pointer[error] // the first simulation error
	r.each(len(unique), func(i int) {
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
// the runs its declaration pass read, then hand the formatter exactly those
// results. A formatter that then reads another run ends the experiment with
// an error naming both.
func (r *Runner) RunExperiment(e Experiment) (out string, err error) {
	rs, err := r.finished(e.ID, e.runs())
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
		keys = append(keys, e.runs()...)
	}
	return r.Precompute(keys)
}
