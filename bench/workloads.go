package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pradram/internal/memctrl"
	"pradram/internal/sim"
	"pradram/internal/trace"
	"pradram/internal/workload"
)

// params are the inputs every scenario is built from.
type params struct {
	seed    uint64
	quick   bool   // budgets / 50: the smoke test's size
	workers int    // GOMAXPROCS; the campaign's pool size
	tmp     string // where the replay scenario writes its trace file
}

// budget scales a per-core instruction budget to the run's size.
func (p params) budget(n int64) int64 {
	if p.quick {
		return n / 50
	}
	return n
}

// scenario is one pinned workload. prepare is its whole set-up: it builds
// the seed-dependent inputs and ends with one pass at an eighth of the
// budget, so the heap and the binary's pages are warm before a rep is timed.
type scenario struct {
	name    string
	prepare func(p params) (runner, error)
}

// runner is a prepared scenario.
type runner interface {
	// rep runs the timed region once, the way a user of the binaries
	// would, and checks what it produced.
	rep() (outcome, error)
	// layers takes the per-layer measurements; best is the fastest
	// untraced rep. Every extra run it makes is an operation on c.
	layers(m metrics, c *checker, best outcome)
	close()
}

// outcome is what one rep cost and produced.
type outcome struct {
	cost
	digest string // sha-256 of a pointer-free encoding of the output
	cycles int64  // simulated CPU cycles of the measured window(s)
	phases [3]time.Duration
	model  *sim.Result // simulated statistics; nil for the campaign
	table  string      // the campaign's output
}

// cost is the host's bill for a timed region.
type cost struct {
	wall       time.Duration
	allocBytes uint64
	mallocs    uint64
}

// timed runs f between two clock readings and two heap snapshots.
func timed(f func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	err := f()
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	return cost{wall: wall, allocBytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs}, err
}

// digest hashes v's JSON. JSON follows pointers (the cache statistics hold
// *stats.Hist), where %v would hash their addresses.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checker counts operations attempted and failed. Correctness is part of
// every operation: a returned error and a violated identity both fail it.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) op(what string, err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		c.failures = append(c.failures, what+": "+err.Error())
	}
	return err == nil
}

var scenarios = []scenario{
	{"paper_gups_pra", func(p params) (runner, error) {
		cfg := sim.DefaultConfig("GUPS")
		cfg.Scheme = memctrl.PRA
		return prepareSim(p, cfg, 80_000, 120_000, true)
	}},
	{"stream_libquantum_4ch", func(p params) (runner, error) {
		cfg := sim.DefaultConfig("libquantum")
		cfg.Channels = 4
		return prepareSim(p, cfg, 300_000, 150_000, false)
	}},
	{"core_resident", func(p params) (runner, error) {
		maker, err := workload.NewSynthetic(workload.SyntheticParams{
			DirtyWords: 2, WriteProb: .5, SeqFraction: .5, ComputeGap: 8, RegionBytes: 512 << 10})
		if err != nil {
			return nil, err
		}
		cfg := sim.DefaultConfig("core_resident")
		cfg.Generator = maker
		return prepareSim(p, cfg, 3_000_000, 500_000, false)
	}},
	{"chase_linkedlist_1core", func(p params) (runner, error) {
		cfg := sim.DefaultConfig("LinkedList")
		cfg.ActiveCores = 1
		return prepareSim(p, cfg, 2_000_000, 300_000, false)
	}},
	{"trace_replay_mix1", prepareReplay},
	{"campaign_table1", prepareCampaign},
}

func scenarioByName(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}

// --- one simulation: prasim's path ---

type simRun struct {
	cfg    sim.Config
	extras bool // also measure LatBreak, the recorder and the checkpoint codec
}

func prepareSim(p params, cfg sim.Config, instr, warmup int64, extras bool) (runner, error) {
	cfg.Seed = p.seed
	cfg.InstrPerCore, cfg.WarmupPerCore = p.budget(instr), p.budget(warmup)
	warm := cfg
	warm.InstrPerCore, warm.WarmupPerCore = cfg.InstrPerCore/8+1, cfg.WarmupPerCore/8+1
	if _, err := sim.RunOne(warm); err != nil {
		return nil, err
	}
	return &simRun{cfg: cfg, extras: extras}, nil
}

func (s *simRun) rep() (outcome, error) { return simRep(s.cfg) }

// simRep is sim.New + Warmup + Measure, timed as a whole and per phase.
func simRep(cfg sim.Config) (outcome, error) {
	var out outcome
	var res sim.Result
	var err error
	out.cost, err = timed(func() error {
		t0 := time.Now()
		sys, err := sim.New(cfg)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := sys.Warmup(); err != nil {
			return err
		}
		t2 := time.Now()
		res, err = sys.Measure()
		out.phases = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), time.Since(t2)}
		return err
	})
	if err != nil {
		return out, err
	}
	out.cycles, out.model = res.Cycles, &res
	out.digest, err = digest(res)
	return out, err
}

func (s *simRun) close() {}

// --- trace replay: pratrace's what-if path ---

type replayRun struct {
	path    string
	records int64 // as captured; the file's footer must agree
	mcfg    memctrl.Config
}

// prepareReplay captures MIX1 under the baseline and saves it as a PRA2
// file; the timed region replays that file under PRA.
func prepareReplay(p params) (runner, error) {
	cfg := sim.DefaultConfig("MIX1")
	cfg.Capture = true
	cfg.Seed = p.seed
	cfg.InstrPerCore, cfg.WarmupPerCore = p.budget(100_000), p.budget(100_000)
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Run(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.tmp, "replay-")
	if err != nil {
		return nil, err
	}
	r := &replayRun{path: filepath.Join(dir, "mix1.pra2"), mcfg: memctrl.DefaultConfig()}
	r.mcfg.Scheme = memctrl.PRA
	f, err := os.Create(r.path)
	if err != nil {
		return nil, err
	}
	if err := sys.Trace().SaveV2(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	r.records = int64(sys.Trace().Len())
	return r, nil
}

// open opens the trace file the way pratrace -replay does.
func (r *replayRun) open() (*os.File, *trace.V2File, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	v2, err := trace.OpenV2(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, v2, nil
}

func (r *replayRun) rep() (outcome, error) {
	var out outcome
	var res trace.ReplayResult
	var footer int64
	var err error
	out.cost, err = timed(func() error {
		f, v2, err := r.open()
		if err != nil {
			return err
		}
		defer f.Close()
		footer = v2.Info().Records
		res, err = trace.ReplayStream(v2.Stream(), r.mcfg, trace.ReplayOpts{})
		return err
	})
	if err != nil {
		return out, err
	}
	if footer != r.records || res.Reads+res.Writes != footer {
		return out, fmt.Errorf("replayed %d reads + %d writes, footer holds %d records, capture held %d",
			res.Reads, res.Writes, footer, r.records)
	}
	out.cycles = res.Cycles
	out.model = &sim.Result{Cycles: res.Cycles, Ctrl: res.Ctrl, Dev: res.Dev, Energy: res.Energy}
	out.digest, err = digest(res)
	return out, err
}

func (r *replayRun) close() { os.RemoveAll(filepath.Dir(r.path)) }

// --- one campaign: praexp's path ---

type campaignRun struct {
	exp sim.Experiment
	opt sim.ExpOptions
}

func prepareCampaign(p params) (runner, error) {
	exp, err := sim.ExperimentByID("table1")
	if err != nil {
		return nil, err
	}
	c := &campaignRun{exp: exp, opt: sim.ExpOptions{
		Instr: p.budget(250_000), Warmup: p.budget(800_000), Seed: p.seed, Workers: p.workers}}
	warm := *c
	warm.opt.Instr, warm.opt.Warmup = c.opt.Instr/8+1, c.opt.Warmup/8+1
	if _, err := warm.rep(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *campaignRun) rep() (outcome, error) {
	out, _, err := c.campaign()
	return out, err
}

// campaign runs the experiment on a fresh runner, which it also returns.
func (c *campaignRun) campaign() (outcome, *sim.Runner, error) {
	var out outcome
	var r *sim.Runner
	var err error
	out.cost, err = timed(func() error {
		r = sim.NewRunner(c.opt)
		out.table, err = r.RunExperiment(c.exp)
		return err
	})
	if err != nil {
		return out, r, err
	}
	// The runner hands out no Result, but the table names its eight
	// single-core runs and AloneIPC recalls exactly those from the memo:
	// IPC = instructions / cycles gives each run's simulated cycles back.
	names := table1Benchmarks(out.table)
	if int64(len(names)) != r.Simulations() || len(names) == 0 {
		return out, r, fmt.Errorf("table lists %d benchmarks, runner simulated %d", len(names), r.Simulations())
	}
	for _, name := range names {
		ipc, err := r.AloneIPC(name, memctrl.RelaxedClose)
		if err != nil {
			return out, r, err
		}
		out.cycles += int64(math.Round(float64(c.opt.Instr) / ipc))
	}
	out.digest, err = digest(out.table)
	return out, r, err
}

func (c *campaignRun) close() {}

// table1Benchmarks returns the first column of the table's data rows.
func table1Benchmarks(table string) []string {
	var names []string
	for i, line := range strings.Split(strings.TrimSpace(table), "\n") {
		if i < 2 { // header and rule
			continue
		}
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	return names
}
