package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pradram/internal/memctrl"
)

// ckptCampaignKeys is a small campaign containing two fingerprint-sharing
// pairs: NoPartialIO is excluded from the warmup fingerprint, so each
// (workload, scheme) pair warms once and its noIO variant restores.
func ckptCampaignKeys() []runKey {
	return []runKey{
		{workload: "GUPS", Knobs: memctrl.Knobs{Scheme: memctrl.PRA}, active: 1},
		{workload: "GUPS", Knobs: memctrl.Knobs{Scheme: memctrl.PRA, NoPartialIO: true}, active: 1},
		{workload: "LinkedList", Knobs: memctrl.Knobs{Scheme: memctrl.Baseline}, active: 1},
		{workload: "LinkedList", Knobs: memctrl.Knobs{Scheme: memctrl.Baseline, NoPartialIO: true}, active: 1},
	}
}

func ckptRunnerOpts() ExpOptions {
	return ExpOptions{Instr: 3000, Warmup: 3000, Seed: 1, Workers: 2}
}

// TestRunnerCheckpointIdentical proves the checkpoint layer is invisible
// in results: a campaign run with checkpoint reuse returns bit-identical
// Results to the same campaign with NoCheckpoint, while actually reusing
// warmups (hit counter) on the fingerprint-sharing keys.
func TestRunnerCheckpointIdentical(t *testing.T) {
	keys := ckptCampaignKeys()

	warm := NewRunner(ckptRunnerOpts())
	if err := warm.Precompute(keys); err != nil {
		t.Fatalf("checkpointed campaign: %v", err)
	}
	optCold := ckptRunnerOpts()
	optCold.NoCheckpoint = true
	cold := NewRunner(optCold)
	if err := cold.Precompute(keys); err != nil {
		t.Fatalf("cold campaign: %v", err)
	}

	for _, k := range keys {
		rw, err := warm.Run(k)
		if err != nil {
			t.Fatalf("warm %s: %v", k, err)
		}
		rc, err := cold.Run(k)
		if err != nil {
			t.Fatalf("cold %s: %v", k, err)
		}
		if !reflect.DeepEqual(rw, rc) {
			t.Errorf("%s: checkpointed result differs from cold result", k)
		}
	}
	if hits := warm.CheckpointHits(); hits != 2 {
		t.Errorf("checkpoint hits = %d, want 2 (one per fingerprint-sharing pair)", hits)
	}
	if misses := warm.CheckpointMisses(); misses != 2 {
		t.Errorf("checkpoint misses = %d, want 2 (one producer per fingerprint)", misses)
	}
	if h, m := cold.CheckpointHits(), cold.CheckpointMisses(); h != 0 || m != 0 {
		t.Errorf("NoCheckpoint runner counted hits=%d misses=%d, want 0/0", h, m)
	}
}

// TestRunnerCheckpointDisk proves -ckpt-dir persistence: a second runner
// process sharing the directory restores the first runner's warmup
// instead of repeating it, with identical results.
func TestRunnerCheckpointDisk(t *testing.T) {
	dir := t.TempDir()
	key := newKey("GUPS", memctrl.PRA, memctrl.RelaxedClose, 1)

	opt := ckptRunnerOpts()
	opt.CkptDir = dir
	a := NewRunner(opt)
	resA, err := a.Run(key)
	if err != nil {
		t.Fatalf("first runner: %v", err)
	}
	if h, m := a.CheckpointHits(), a.CheckpointMisses(); h != 0 || m != 1 {
		t.Fatalf("first runner hits=%d misses=%d, want 0/1", h, m)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files on disk = %v (err %v), want exactly one", files, err)
	}

	b := NewRunner(opt)
	resB, err := b.Run(key)
	if err != nil {
		t.Fatalf("second runner: %v", err)
	}
	if h, m := b.CheckpointHits(), b.CheckpointMisses(); h != 1 || m != 0 {
		t.Errorf("second runner hits=%d misses=%d, want 1/0", h, m)
	}
	if b.Simulations() != 1 {
		t.Errorf("second runner simulations = %d, want 1 (measure still runs)", b.Simulations())
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("restored-from-disk result differs from cold result")
	}
}

// TestRunnerCheckpointDiskCorrupt proves a damaged persisted checkpoint is
// rejected, replaced, and never changes results.
func TestRunnerCheckpointDiskCorrupt(t *testing.T) {
	dir := t.TempDir()
	key := newKey("GUPS", memctrl.PRA, memctrl.RelaxedClose, 1)
	opt := ckptRunnerOpts()
	opt.CkptDir = dir

	a := NewRunner(opt)
	resA, err := a.Run(key)
	if err != nil {
		t.Fatalf("first runner: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("checkpoint files on disk = %v, want exactly one", files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x41
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b := NewRunner(opt)
	resB, err := b.Run(key)
	if err != nil {
		t.Fatalf("runner with corrupt store: %v", err)
	}
	if h, m := b.CheckpointHits(), b.CheckpointMisses(); h != 0 || m != 1 {
		t.Errorf("corrupt-store runner hits=%d misses=%d, want 0/1 (cold fallback)", h, m)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("result after corrupt-checkpoint fallback differs")
	}

	// The producer replaces the damaged entry, so a third runner hits.
	c := NewRunner(opt)
	if _, err := c.Run(key); err != nil {
		t.Fatalf("third runner: %v", err)
	}
	if h := c.CheckpointHits(); h != 1 {
		t.Errorf("third runner hits = %d, want 1 (store was repaired)", h)
	}
}

// TestRunnerCheckpointIneligible proves runs without a warmup phase bypass
// the checkpoint layer without touching the counters.
func TestRunnerCheckpointIneligible(t *testing.T) {
	opt := ckptRunnerOpts()
	opt.Warmup = 0
	r := NewRunner(opt)
	if _, err := r.Run(newKey("GUPS", memctrl.Baseline, memctrl.RelaxedClose, 1)); err != nil {
		t.Fatal(err)
	}
	if h, m := r.CheckpointHits(), r.CheckpointMisses(); h != 0 || m != 0 {
		t.Errorf("warmupless runner counted hits=%d misses=%d, want 0/0", h, m)
	}
}

// TestCheckpointMemoBounded proves a wave keeps a snapshot only while a run
// that can restore it is pending. Keys with pairwise-distinct fingerprints
// leave nothing behind (and take nothing: all four warm cold); of two keys
// sharing one, the first leaves its snapshot for the second, whose end frees
// it. A lazy Run outside any wave keeps its snapshot, as before.
func TestCheckpointMemoBounded(t *testing.T) {
	keys := ckptCampaignKeys()
	held := func(r *Runner) int { return len(r.ckpts.vals) }

	distinct := NewRunner(ckptRunnerOpts())
	if err := distinct.Precompute([]runKey{keys[0], keys[2]}); err != nil {
		t.Fatal(err)
	}
	if n := held(distinct); n != 0 {
		t.Errorf("wave of distinct fingerprints left %d snapshots, want 0", n)
	}
	if h, m := distinct.CheckpointHits(), distinct.CheckpointMisses(); h != 0 || m != 2 {
		t.Errorf("distinct wave hits=%d misses=%d, want 0/2", h, m)
	}

	// The two halves of Precompute, by hand, to look between the runs.
	shared := NewRunner(ckptRunnerOpts())
	pair := keys[:2]
	fps := []string{shared.ckptDeclare(shared.config(pair[0])), shared.ckptDeclare(shared.config(pair[1]))}
	if fps[0] == "" || fps[0] != fps[1] {
		t.Fatalf("fingerprints %q: the pair must share one", fps)
	}
	for i, want := range []int{1, 0} {
		if _, err := shared.Run(pair[i]); err != nil {
			t.Fatal(err)
		}
		shared.ckptRelease(fps[i])
		if n := held(shared); n != want {
			t.Errorf("after run %d of the sharing pair the runner holds %d snapshots, want %d", i+1, n, want)
		}
	}
	if h, m := shared.CheckpointHits(), shared.CheckpointMisses(); h != 1 || m != 1 {
		t.Errorf("sharing pair hits=%d misses=%d, want 1/1", h, m)
	}
	// And through the pool itself: both pairs, two workers.
	if err := shared.Precompute(append(keys, keys...)); err != nil {
		t.Fatal(err)
	}
	if n := held(shared); n != 0 || len(shared.sharing) != 0 {
		t.Errorf("finished waves left %d snapshots and sharing counts %v, want none", n, shared.sharing)
	}

	lazy := NewRunner(ckptRunnerOpts())
	if _, err := lazy.Run(keys[0]); err != nil {
		t.Fatal(err)
	}
	if n := held(lazy); n != 1 {
		t.Errorf("lazy run holds %d snapshots, want 1", n)
	}
}

// TestRunSystems holds the driver prasim uses to the Runner's own contract:
// pre-built systems come back with the Results a monolithic RunOne gives, in
// input order, a failure does not stop the others, a second runner on the
// same CkptDir restores every warmup, and the wave leaves no snapshot behind.
func TestRunSystems(t *testing.T) {
	opt := ckptRunnerOpts()
	opt.CkptDir = t.TempDir()
	var cfgs []Config
	for _, k := range []runKey{ckptCampaignKeys()[0], ckptCampaignKeys()[2]} {
		cfg, err := NewRunner(opt).config(k)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	stuck := cfgs[0]
	stuck.MaxCycles = 10 // exhausts its tick budget during warmup
	cfgs = append(cfgs, stuck)

	for round, want := range [][2]int64{{0, 3}, {2, 1}} {
		systems := make([]*System, len(cfgs))
		for i, cfg := range cfgs {
			var err error
			if systems[i], err = New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		r := NewRunner(opt)
		results, errs := r.RunSystems(systems)
		for i, cfg := range cfgs[:2] {
			ref, err := RunOne(cfg)
			if err != nil || errs[i] != nil {
				t.Fatalf("round %d run %d: %v / %v", round, i, err, errs[i])
			}
			if !reflect.DeepEqual(results[i], ref) {
				t.Errorf("round %d run %d: RunSystems result differs from RunOne's", round, i)
			}
		}
		if errs[2] == nil || !strings.Contains(errs[2].Error(), "warmup made no progress") {
			t.Errorf("round %d: stuck run returned %v, want the warmup no-progress error", round, errs[2])
		}
		if h, m := r.CheckpointHits(), r.CheckpointMisses(); h != want[0] || m != want[1] {
			t.Errorf("round %d: hits=%d misses=%d, want %d/%d", round, h, m, want[0], want[1])
		}
		if n := len(r.ckpts.vals); n != 0 || len(r.sharing) != 0 {
			t.Errorf("round %d: finished wave left %d snapshots and sharing counts %v", round, n, r.sharing)
		}
		if r.Simulations() != 2 {
			t.Errorf("round %d: %d simulations counted, want 2", round, r.Simulations())
		}
	}
}
