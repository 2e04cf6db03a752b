package sim

import (
	"reflect"
	"sync"
	"testing"

	"pradram/internal/memctrl"
)

// The determinism suite is the regression gate that keeps parallelism
// from silently perturbing paper numbers: the same runKey set must produce
// bit-identical Results through the sequential path and the worker pool.
// These tests stay enabled under -short so `go test -race -short ./...`
// exercises the concurrent cache on every CI run.

// determinismKeys is a small spread over schemes, policies, and core
// counts — enough shape diversity to catch order-dependent state without
// blowing the -race budget.
func determinismKeys() []runKey {
	return []runKey{
		newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 1),
		newKey("GUPS", memctrl.PRA, memctrl.RelaxedClose, 4),
		newKey("em3d", memctrl.HalfDRAM, memctrl.RestrictedClose, 4),
		{workload: "MIX2", Knobs: memctrl.Knobs{Scheme: memctrl.PRA}, dbi: true, active: 4},
	}
}

// tinyOpt is the budget the determinism tests run at. Workers is pinned
// (not NumCPU) so the parallel path really overlaps runs even on a
// single-CPU CI machine.
func tinyOpt(workers int) ExpOptions {
	return ExpOptions{Instr: 12_000, Warmup: 12_000, Seed: 1, Workers: workers}
}

func TestParallelPoolMatchesSequential(t *testing.T) {
	t.Parallel()
	keys := determinismKeys()

	seq := NewRunner(tinyOpt(1))
	if err := seq.Precompute(keys); err != nil {
		t.Fatal(err)
	}
	par := NewRunner(tinyOpt(4))
	if err := par.Precompute(keys); err != nil {
		t.Fatal(err)
	}

	for _, k := range keys {
		a, err := seq.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: sequential and parallel results differ:\nseq: %+v\npar: %+v", k, a, b)
		}
	}
	if got, want := par.Simulations(), int64(len(keys)); got != want {
		t.Errorf("parallel pool executed %d simulations, want %d (no duplicates, no drops)", got, want)
	}
}

// TestSingleflightDeduplicates hammers one key from many goroutines: all
// callers must receive the identical result and the simulation must have
// executed exactly once.
func TestSingleflightDeduplicates(t *testing.T) {
	t.Parallel()
	r := NewRunner(tinyOpt(4))
	k := newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 1)

	const callers = 8
	results := make([]Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(k)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("caller %d saw a different result", i)
		}
	}
	if got := r.Simulations(); got != 1 {
		t.Errorf("%d simulations executed for one key, want 1 (singleflight)", got)
	}
}

// TestExperimentOutputIdenticalAcrossWorkers renders a full experiment
// table through both paths: the formatted bytes must match exactly, which
// is what guarantees `praexp -exp all` emits identical tables at any -j.
func TestExperimentOutputIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	e, err := ExperimentByID("powerband")
	if err != nil {
		t.Fatal(err)
	}
	seqOut, err := NewRunner(tinyOpt(1)).RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := NewRunner(tinyOpt(4)).RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	if seqOut != parOut {
		t.Errorf("experiment output differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}
}

// TestDiskCacheRoundTrip proves a result survives the JSON round trip
// bit-identically and that a second runner recalls it without simulating.
func TestDiskCacheRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opt := tinyOpt(2)
	opt.CacheDir = dir
	k := newKey("em3d", memctrl.PRA, memctrl.RelaxedClose, 4)

	first := NewRunner(opt)
	a, err := first.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if first.Simulations() != 1 || first.DiskHits() != 0 {
		t.Fatalf("cold run: %d sims, %d disk hits", first.Simulations(), first.DiskHits())
	}

	second := NewRunner(opt)
	b, err := second.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if second.Simulations() != 0 || second.DiskHits() != 1 {
		t.Errorf("warm run: %d sims, %d disk hits, want 0 and 1", second.Simulations(), second.DiskHits())
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("disk round trip changed the result:\nfresh: %+v\ncached: %+v", a, b)
	}
}

// TestDiskCacheKeyedByBudgetAndVersion: a different budget or seed must
// miss rather than resurface a foreign result.
func TestDiskCacheKeyedByBudgetAndVersion(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opt := tinyOpt(1)
	opt.CacheDir = dir
	k := newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 1)

	if _, err := NewRunner(opt).Run(k); err != nil {
		t.Fatal(err)
	}
	changed := opt
	changed.Seed = 99
	r := NewRunner(changed)
	if _, err := r.Run(k); err != nil {
		t.Fatal(err)
	}
	if r.DiskHits() != 0 {
		t.Error("a different seed must not hit the disk cache")
	}
	if r.Simulations() != 1 {
		t.Errorf("changed-seed run executed %d simulations, want 1", r.Simulations())
	}
}
