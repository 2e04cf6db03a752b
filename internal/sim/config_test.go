package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/power"
)

// TestValidateNamesTheField holds every rejection — the sim-level ones and
// the controller's, which Validate runs on the configuration New would
// build — to naming the field at fault, and New to agreeing with Validate.
func TestValidateNamesTheField(t *testing.T) {
	t.Parallel()
	cases := []struct {
		set  func(*Config)
		want string
	}{
		{func(c *Config) { c.WarmupPerCore = -5 }, "WarmupPerCore"},
		{func(c *Config) { c.FunctionalWarmupPerCore = -5 }, "FunctionalWarmupPerCore"},
		{func(c *Config) { c.InstrPerCore = -1 }, "InstrPerCore"},
		{func(c *Config) { c.MaxCycles = -1 }, "MaxCycles"},
		{func(c *Config) { c.Cores = -1 }, "Cores"},
		{func(c *Config) { c.ActiveCores = -1 }, "ActiveCores"},
		{func(c *Config) { c.Channels = -2 }, "channels must be a positive power of two"},
		{func(c *Config) { c.Channels = 3 }, "channels must be a positive power of two"},
		{func(c *Config) { t := dram.DefaultTiming(); t.Rate.Num = 64000; c.Timing = &t }, "Timing.Rate"},
		{func(c *Config) { c.Obs.EpochCycles = -7 }, "Obs.EpochCycles"},
		{func(c *Config) { c.Obs.EventLevel = obs.LevelCmd + 1 }, "Obs.EventLevel"},
		{func(c *Config) { c.PowerCal = "bogus" }, "PowerCal"},
		{func(c *Config) { c.Workload = "nosuch" }, `unknown workload set "nosuch"`},
		{func(c *Config) { c.Workload = "MIX1"; c.Cores = 2 }, "mix MIX1 needs 4 cores"},
		{func(c *Config) { c.MitThreshold = 1 }, "MitThreshold must be 0 (off) or ≥ 2"},
		{func(c *Config) { c.PDPolicy = memctrl.PDTimed }, "requires PDTimeout > 0"},
		{func(c *Config) { c.LatSpanEvery = -1 }, "LatSpanEvery"},
		{func(c *Config) { c.CPU.ROB = 0 }, "ROB"},
	}
	for _, c := range cases {
		cfg := DefaultConfig("GUPS")
		c.set(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want an error containing %q, got %v", c.want, err)
		}
		if _, nerr := New(cfg); nerr == nil {
			t.Errorf("New accepted what Validate rejects (%v)", err)
		}
	}

	for _, o := range []ExpOptions{{Instr: -1}, {Warmup: -1}, {Workers: -1}} {
		if o.Validate() == nil {
			t.Errorf("%+v must be rejected", o)
		}
	}
	if err := (ExpOptions{}).Validate(); err != nil {
		t.Errorf("zero ExpOptions select the defaults: %v", err)
	}
}

// TestTimingAloneSetsTheClock: a Config that only swaps the timing set runs
// at that grade's clock ratio. DDR3-800's 2.5 ns command clock is eight
// 3.2 GHz core cycles; nothing else has to be said for the run to know it.
func TestTimingAloneSetsTheClock(t *testing.T) {
	t.Parallel()
	g, _ := dram.SpeedGradeByName("DDR3-800")
	cfg := DefaultConfig("GUPS")
	cfg.Timing = &g.Timing
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ctrl.CPUAt(1); got != 8 {
		t.Errorf("DDR3-800's memory cycle 1 starts at CPU cycle %d, want 8", got)
	}
}

// gradeRuns runs 1-core GUPS once at every speed grade, slowest first, for
// the clock traps below; q/p is each bin's ratio of memory to CPU cycles
// and tck its datasheet tCK in ns, both stated here apart from the code
// under test. LatBreak fills the latency histograms without changing the
// run.
var gradeRuns = sync.OnceValues(func() ([]gradeRun, error) {
	bins := []gradeRun{{name: "DDR3-800", p: 8, q: 1, tck: 2.5}, {name: "DDR3-1066", p: 6, q: 1, tck: 1.875},
		{name: "DDR3-1333", p: 24, q: 5, tck: 1.5}, {name: "DDR3-1600", p: 4, q: 1, tck: 1.25},
		{name: "DDR3-1866", p: 24, q: 7, tck: 1.071}, {name: "DDR3-2133", p: 3, q: 1, tck: 0.938}}
	for i := range bins {
		g, ok := dram.SpeedGradeByName(bins[i].name)
		if !ok {
			return nil, fmt.Errorf("no speed grade %s", bins[i].name)
		}
		cfg := DefaultConfig("GUPS")
		cfg.Cores, cfg.InstrPerCore, cfg.WarmupPerCore = 1, 20_000, 5_000
		cfg.Timing = &g.Timing
		cfg.LatBreak = true
		sys, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if bins[i].res, err = sys.Run(); err != nil {
			return nil, err
		}
		bins[i].sys = sys
	}
	return bins, nil
})

type gradeRun struct {
	name string
	p, q int64
	tck  float64
	sys  *System
	res  Result
}

// TestRunKeepsExactMemoryTime: the DRAM clock keeps exact time against the
// cores. After a run's last CPU cycle c, the last memory cycle started is
// ⌊c·q/p⌋ at every bin, 24:5 (DDR3-1333) and 24:7 (DDR3-1866) included,
// where ratios rounded to 5 and 3 ran the DRAM 4 % slow and 14 % fast.
func TestRunKeepsExactMemoryTime(t *testing.T) {
	t.Parallel()
	runs, err := gradeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		c := r.sys.cycle - 1
		if got, want := r.sys.ctrl.MemCycle(), c*r.q/r.p; got != want {
			t.Errorf("%s: after CPU cycle %d the DRAM is at memory cycle %d, want ⌊%d·%d/%d⌋ = %d", r.name, c, got, c, r.q, r.p, want)
		}
	}
}

// TestFasterGradeIsNoSlower: 1-core GUPS, bound by DRAM latency, takes no
// more cycles at a faster bin. A part clocked faster than its cycle counts
// assume (DDR3-1866 run at DDR3-2133's clock) overtakes the next bin.
func TestFasterGradeIsNoSlower(t *testing.T) {
	t.Parallel()
	runs, err := gradeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(runs); i++ {
		if prev, r := runs[i-1], runs[i]; r.res.Cycles > prev.res.Cycles {
			t.Errorf("%s takes %d cycles, more than %s's %d", r.name, r.res.Cycles, prev.name, prev.res.Cycles)
		}
	}
}

// TestResultsCarryANamedCalibration: every Result RunOne returns names the
// calibration it was configured with, "none" for an empty Config.PowerCal,
// so EnergyBand can apply Result.Cal as it stands. A zero Cal would scale
// every energy component by zero.
func TestResultsCarryANamedCalibration(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ spec, name string }{{"", "none"}, {"ghose:10", "ghose"}} {
		cfg := DefaultConfig("GUPS")
		cfg.InstrPerCore, cfg.WarmupPerCore, cfg.PowerCal = 5_000, 0, c.spec
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cal.Name != c.name {
			t.Errorf("PowerCal %q: Result.Cal is %q, want %q", c.spec, res.Cal.Name, c.name)
		}
		if nom := res.EnergyBand().Nom; !(nom > 0) {
			t.Errorf("PowerCal %q: nominal energy %v pJ, want positive", c.spec, nom)
		}
	}
}

// TestResultNsUseTheRunsClock: every ns latency on a Result is its cycle
// figure times the run's own datasheet tCK, not DDR3-1600's at every bin.
// 1-core GUPS writes nothing back at this budget, so the write methods are
// held to the read figures moved into the write fields. A DDR3-1600 Result
// encodes without its clock, byte for byte as before the clock was carried.
func TestResultNsUseTheRunsClock(t *testing.T) {
	t.Parallel()
	runs, err := gradeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		c := r.res.Ctrl
		if c.ReadsServed == 0 || c.ReadLatHist.N == 0 {
			t.Fatalf("%s: no read latency was sampled", r.name)
		}
		w := r.res
		w.Ctrl.WriteLatencySum, w.Ctrl.WritesServed, w.Ctrl.WriteLatHist = c.ReadLatencySum, c.ReadsServed, c.ReadLatHist
		avg, p90 := float64(c.ReadLatencySum)/float64(c.ReadsServed), c.ReadLatHist.Quantile(0.9)
		for _, m := range []struct {
			name       string
			ns, cycles float64
		}{
			{"average read", r.res.AvgReadLatencyNs(), avg},
			{"average write", w.AvgWriteLatencyNs(), avg},
			{"read p90", r.res.ReadLatQuantileNs(0.9), p90},
			{"write p90", w.WriteLatQuantileNs(0.9), p90},
		} {
			if want := m.cycles * r.tck; m.ns != want {
				t.Errorf("%s: %s latency %v ns, want %v cycles × %v ns = %v", r.name, m.name, m.ns, m.cycles, r.tck, want)
			}
		}
		raw, err := json.Marshal(r.res)
		if err != nil {
			t.Fatal(err)
		}
		if hasKey, want := bytes.Contains(raw, []byte(`"Rate"`)), r.name != "DDR3-1600"; hasKey != want {
			t.Errorf("%s: the Result's JSON has a clock key: %v, want %v", r.name, hasKey, want)
		}
	}
}

// TestMitigationThresholdTwoTerminates is the regression test for the
// threshold-1 livelock (every activation alerts, and the alert's own RFM
// closes the row before its column command — no request is ever served):
// the smallest accepted threshold must still make progress, on the attack
// it fires on constantly and on a benign random stream.
func TestMitigationThresholdTwoTerminates(t *testing.T) {
	t.Parallel()
	for _, wl := range []string{"HammerSingle", "GUPS"} {
		cfg := DefaultConfig(wl)
		cfg.Cores = 1
		cfg.InstrPerCore = 12_000
		cfg.WarmupPerCore = 2_000
		cfg.MitThreshold = 2
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		// Every alert completes in exactly one RFM; at most the final one
		// may still be pending when the run ends.
		if a, r := res.Ctrl.Alerts, res.Dev.RFMs; r == 0 || (a != r && a != r+1) {
			t.Errorf("%s: %d alerts, %d RFMs; want equal and positive", wl, a, r)
		}
	}
}

// The knob bytes FuzzConfig reads, by position.
const (
	kWorkload = iota
	kScheme
	kPolicy
	kECC
	kDBI
	kNoSkip
	kNoTimingRelax
	kNoPartialIO
	kNoMaskCycle
	kPDPolicy
	kPDTimeout
	kSRTimeout
	kPDSlowExit
	kAPD
	kRefreshMode
	kMitThreshold
	kMitAlert
	kLatBreak
	kLatSpan
	kCores
	kActiveCores
	kInstr
	kWarmup
	kSeed
	kChannels
	kEpoch
	kEventLevel
	kPowerCal
	kFunctionalWarmup
	numKnobBytes
)

// knobsAt returns knob bytes that are zero but for the (position, value)
// pairs given.
func knobsAt(pairs ...int) []byte {
	b := make([]byte, numKnobBytes)
	for i := 0; i < len(pairs); i += 2 {
		b[pairs[i]] = byte(pairs[i+1])
	}
	return b
}

// fuzzConfig builds a Config from knob bytes: each byte picks one field's
// value from a small domain that holds the valid choices and their hostile
// neighbours (negative, zero, one, out of range, huge). A missing byte
// reads as zero, which picks a valid value everywhere.
func fuzzConfig(knobs []byte) Config {
	at := func(pos int) int {
		if pos < len(knobs) {
			return int(knobs[pos])
		}
		return 0
	}
	pick := func(pos int, vals ...int64) int64 { return vals[at(pos)%len(vals)] }
	bit := func(pos int) bool { return at(pos)&1 == 1 }

	workloads := []string{"GUPS", "LinkedList", "bzip2", "HammerSingle", "MIX1", "gups:1,linkedlist:1", "nosuch", ""}
	cfg := DefaultConfig(workloads[at(kWorkload)%len(workloads)])
	cfg.Scheme = memctrl.Scheme(pick(kScheme, 0, 1, 2, 3, 4, 5, 6, -1))
	cfg.Policy = memctrl.Policy(pick(kPolicy, 0, 1, 2, 3, -1))
	cfg.ECC, cfg.DBI, cfg.NoSkip = bit(kECC), bit(kDBI), bit(kNoSkip)
	cfg.NoTimingRelax, cfg.NoPartialIO, cfg.NoMaskCycle = bit(kNoTimingRelax), bit(kNoPartialIO), bit(kNoMaskCycle)
	cfg.PDPolicy = memctrl.PDPolicy(pick(kPDPolicy, 0, 1, 2, 3, 4))
	cfg.PDTimeout = pick(kPDTimeout, 0, 1, 7, 200, 1<<40, -1)
	cfg.SRTimeout = pick(kSRTimeout, 0, 1, 50, 5000, 1<<40, -1)
	cfg.PDSlowExit, cfg.APD = bit(kPDSlowExit), bit(kAPD)
	cfg.RefreshMode = dram.RefreshMode(pick(kRefreshMode, 0, 1, 2, 3))
	cfg.MitThreshold = int(pick(kMitThreshold, 0, 2, 3, 4, 32, 1<<30, 1, -1))
	cfg.MitAlertCycles = pick(kMitAlert, 0, 1, 144, 1000, -1)
	cfg.LatBreak = bit(kLatBreak)
	cfg.LatSpanEvery = int(pick(kLatSpan, 0, 1, 16, -1))
	cfg.Cores = int(pick(kCores, 4, 1, 2, 0))
	cfg.ActiveCores = int(pick(kActiveCores, 0, 1, 2, 5, -1))
	cfg.InstrPerCore = pick(kInstr, 1500, 1, 300, 0, -1)
	cfg.WarmupPerCore = pick(kWarmup, 0, 1, 700, -5)
	cfg.FunctionalWarmupPerCore = pick(kFunctionalWarmup, 0, 1, 700, -5)
	cfg.Seed = uint64(at(kSeed))
	cfg.Channels = int(pick(kChannels, 0, 1, 2, 4, 8, 3, -1))
	cfg.Obs.EpochCycles = pick(kEpoch, 0, 1, 64, 100_000, -7)
	cfg.Obs.EventLevel = obs.Level(pick(kEventLevel, 0, 1, 2, 3))
	cfg.PowerCal = []string{"", "ghose", "ghose:10", "vendor", "bogus", "ghose:x"}[at(kPowerCal)%6]
	return cfg
}

// FuzzConfig is the hostile-configuration contract: any Config either is
// rejected by Validate with an error naming a field (and New agrees), or
// builds and runs to completion well inside a small executed-tick budget
// with a finite Result — never a panic, never a stall that burns the
// budget, never NaN or Inf in what the run reports.
func FuzzConfig(f *testing.F) {
	f.Add([]byte{}) // the baseline system
	// One valid cell per scheme, spread over policies, workloads and the
	// power-down, refresh and mitigation machinery.
	f.Add(knobsAt(kScheme, 1, kPolicy, 1, kWorkload, 1))
	f.Add(knobsAt(kScheme, 2, kPolicy, 2, kWorkload, 2, kDBI, 1, kAPD, 1))
	f.Add(knobsAt(kScheme, 3, kChannels, 3, kNoSkip, 1, kEpoch, 2, kEventLevel, 2))
	f.Add(knobsAt(kScheme, 4, kPDPolicy, 3, kPDTimeout, 3, kSRTimeout, 3, kPDSlowExit, 1))
	f.Add(knobsAt(kScheme, 5, kWorkload, 4, kRefreshMode, 2, kPowerCal, 2))
	f.Add(knobsAt(kScheme, 3, kWorkload, 3, kCores, 1, kMitThreshold, 1, kMitAlert, 3, kLatBreak, 1, kLatSpan, 1))
	// The hostile inputs this contract was written against.
	f.Add(knobsAt(kWorkload, 3, kMitThreshold, 6)) // -mit-threshold 1: the livelock
	f.Add(knobsAt(kWarmup, 3))                     // -warmup -5
	f.Add(knobsAt(kFunctionalWarmup, 3))           // FunctionalWarmupPerCore -5
	f.Add(knobsAt(kEpoch, 4))                      // -epoch -7
	f.Add(knobsAt(kMitAlert, 4))                   // -mit-alert -1
	f.Add(knobsAt(kPDPolicy, 2))                   // timeout policy, PDTimeout 0
	f.Add(knobsAt(kWorkload, 6))
	f.Add(knobsAt(kWorkload, 4, kCores, 2)) // MIX1 on two cores
	f.Add(knobsAt(kChannels, 5))
	f.Add(knobsAt(kPowerCal, 4))
	f.Fuzz(func(t *testing.T, knobs []byte) {
		cfg := fuzzConfig(knobs)
		if err := cfg.Validate(); err != nil {
			if !namesAField(err.Error()) {
				t.Errorf("rejection does not name a field: %v", err)
			}
			if _, nerr := New(cfg); nerr == nil {
				t.Errorf("New accepted what Validate rejects (%v)", err)
			}
			return
		}
		// Generous for these budgets (the slowest accepted cell, an alert
		// per second activation under NoSkip, executes ~2M ticks), tiny
		// next to the default no-progress bound.
		cfg.MaxCycles = 20_000_000
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatalf("accepted by Validate, then: %v\n%+v", err, cfg)
		}
		finite := func(what string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s = %v\n%+v", what, v, cfg)
			}
		}
		for c := power.Component(0); c < power.NumComponents; c++ {
			finite("energy "+c.String(), res.Energy[c])
		}
		finite("average power", res.AvgPowerMW())
		finite("EDP", res.EDP())
		for i, ipc := range res.CoreIPC {
			if finite("IPC", ipc); ipc <= 0 {
				t.Errorf("core %d IPC %v\n%+v", i, ipc, cfg)
			}
		}
	})
}

// namesAField reports whether a rejection mentions a Config field (any
// spelling of its name) — what a user needs to find the flag to fix.
func namesAField(msg string) bool {
	msg = strings.ToLower(msg)
	for _, name := range leafFields(reflect.TypeOf(Config{})) {
		if strings.Contains(msg, strings.ToLower(name)) {
			return true
		}
	}
	return false
}
