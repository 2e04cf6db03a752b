// Package sim wires the substrates into the paper's evaluation platform —
// the role gem5+DRAMSim2 play in the original work: four out-of-order cores
// (internal/cpu) over a two-level FGD cache hierarchy (internal/cache), a
// multi-channel FR-FCFS memory controller (internal/memctrl) driving
// cycle-level DDR3 channels (internal/dram) with the Micron/CACTI power
// model (internal/power), fed by the synthetic benchmark generators
// (internal/workload). It also hosts the weighted-speedup harness and the
// experiment drivers that regenerate every table and figure of the paper's
// evaluation (Section 5).
package sim

import (
	"fmt"

	"pradram/internal/cache"
	"pradram/internal/core"
	"pradram/internal/cpu"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/power"
	"pradram/internal/trace"
	"pradram/internal/workload"
)

// CPUClockGHz is the core clock (Table 3).
const CPUClockGHz = 3.2

// CPUCycleNs is one CPU cycle in nanoseconds.
const CPUCycleNs = 1.0 / CPUClockGHz

// MemCycleNs is one DRAM command-clock cycle in nanoseconds at the
// DDR3-1600 ratio of four CPU cycles per memory cycle. Latency sums,
// histograms and spans are counted in memory cycles; every ns figure on a
// Result (AvgReadLatencyNs, the quantiles) and prasim's Perfetto export
// convert through this constant. It hides one limitation: a run on another
// speed grade (the speedgrades experiment's grade= keys, CPUPerMem 3-8) has
// correct cycle counts but ns latencies scaled as if it were DDR3-1600. The
// fix is a cycle length carried on Result, and a new Result field changes
// the JSON digests bench/replica.go compares, so it waits for a [benchmark]
// PR.
const MemCycleNs = CPUCycleNs * 4

// Config describes one simulation run.
type Config struct {
	// Workload is a benchmark name (run as identical instances on all
	// active cores) or a MIXn name from Table 4.
	Workload string

	// Knobs are the run's controller settings (scheme, policy, ECC, the PRA
	// ablations, power-down and refresh management, mitigation, latency
	// attribution), declared and documented on memctrl.Knobs and forwarded
	// as a unit; their fields are promoted: cfg.Scheme, cfg.PDTimeout.
	memctrl.Knobs

	// DBI enables the Dirty-Block-Index proactive writeback case study.
	DBI bool

	// Capture records the DRAM request stream (line fills and dirty
	// writebacks with FGD masks) during the measured window; retrieve it
	// with System.Trace and replay it with the trace package.
	Capture bool

	// PowerCal selects the measurement-informed power-model calibration
	// ("none", "vendor", "ghose", optionally with a device-variation
	// sigma suffix like "ghose:10" — see power.ParseCalibration). It is
	// applied post-hoc to the energy breakdown, so it cannot perturb
	// simulated state; every energy result then carries a
	// min/nominal/max band (Result.EnergyBand). Empty means "none".
	PowerCal string

	Cores        int   // total cores (4 in the paper)
	ActiveCores  int   // cores that execute (1 for IPC_alone runs); 0 = all
	InstrPerCore int64 // retire target per active core (after warmup)
	// WarmupPerCore runs this many instructions per core before resetting
	// all statistics, so short runs measure steady-state behaviour (the
	// paper fast-forwards to SimPoint regions for the same reason). The
	// main use is populating the 4MB L2 so dirty evictions — the traffic
	// PRA acts on — flow at their steady-state rate.
	WarmupPerCore int64
	Seed          uint64

	// MaxCycles aborts a run that stopped making progress; 0 derives a
	// generous bound from InstrPerCore. The bound is spent in ticks
	// *executed*, not cycles elapsed, so it stays meaningful when the run
	// loop fast-forwards over quiescent stretches (which can legitimately
	// push the cycle number far past any fixed cycle budget).
	MaxCycles int64

	// NoSkip disables event-driven fast-forwarding: the run loop ticks
	// every component on every CPU cycle, as the original implementation
	// did. Results are bit-identical either way (the determinism suite
	// enforces it); the flag exists as a debugging escape hatch and as
	// the baseline for the speed benchmarks.
	NoSkip bool

	// Channels overrides the memory controller's channel count (0 keeps
	// the memctrl default; must be a power of two). It changes simulated
	// behaviour, so it is part of the warmup fingerprint.
	Channels int

	CPU cpu.Config

	// Generator, when non-nil, overrides the named workload with a custom
	// maker on every active core (Workload then only labels the run) —
	// the hook the synthetic sensitivity sweeps use.
	Generator workload.Maker

	// Timing overrides the DDR3 timing set (e.g. a dram.SpeedGrades
	// entry); CPUPerMem must be set alongside it when the clock ratio
	// changes. Nil keeps the DDR3-1600 default.
	Timing    *dram.Timing
	CPUPerMem int64

	// Obs selects the telemetry the run carries (epoch time-series
	// recorder, structured event trace); the zero value disables both.
	// See obswire.go.
	Obs ObsConfig
}

// DefaultConfig returns the paper's baseline system for a workload.
func DefaultConfig(workloadName string) Config {
	return Config{
		Workload:     workloadName,
		Knobs:        memctrl.Knobs{Scheme: memctrl.Baseline, Policy: memctrl.RelaxedClose},
		Cores:        4,
		InstrPerCore: 1_000_000,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
	}
}

// Validate reports the first configuration problem, naming the field. It is
// the one place run configurations are rejected: the controller's own
// checks run here on the configuration New would hand it, so nothing is
// discovered after half a system has been built.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: Cores must be positive, got %d", c.Cores)
	case c.ActiveCores < 0 || c.ActiveCores > c.Cores:
		return fmt.Errorf("sim: ActiveCores %d out of range [0,%d]", c.ActiveCores, c.Cores)
	case c.InstrPerCore <= 0:
		return fmt.Errorf("sim: InstrPerCore must be positive, got %d", c.InstrPerCore)
	case c.WarmupPerCore < 0:
		return fmt.Errorf("sim: WarmupPerCore must be non-negative, got %d", c.WarmupPerCore)
	case c.MaxCycles < 0:
		return fmt.Errorf("sim: MaxCycles must be non-negative, got %d", c.MaxCycles)
	case c.Workload == "":
		return fmt.Errorf("sim: Workload is required")
	case c.Obs.EpochCycles < 0:
		return fmt.Errorf("sim: Obs.EpochCycles must be non-negative, got %d", c.Obs.EpochCycles)
	case c.Obs.EventCap < 0:
		return fmt.Errorf("sim: Obs.EventCap must be non-negative, got %d", c.Obs.EventCap)
	case c.Obs.EventLevel > obs.LevelCmd:
		return fmt.Errorf("sim: unknown Obs.EventLevel %d", c.Obs.EventLevel)
	}
	if c.Generator == nil {
		if _, err := workload.Set(c.Workload, c.Cores); err != nil {
			return err
		}
	}
	if _, err := power.ParseCalibration(c.PowerCal); err != nil {
		return fmt.Errorf("sim: PowerCal: %w", err)
	}
	if err := c.ctrlConfig().Validate(); err != nil {
		return err
	}
	return c.CPU.Validate()
}

// ctrlConfig returns the memory-controller configuration of the run: the
// Table 3 system under the run's knobs, with the overrides Config carries
// (zero keeps the default; a negative override is the controller's Validate
// to reject).
func (c Config) ctrlConfig() memctrl.Config {
	mcfg := memctrl.ConfigFor(c.Knobs)
	if c.Timing != nil {
		mcfg.Timing = *c.Timing
	}
	if c.CPUPerMem != 0 {
		mcfg.CPUPerMem = c.CPUPerMem
	}
	if c.Channels != 0 {
		mcfg.Channels = c.Channels
	}
	return mcfg
}

// System is one assembled simulation instance.
type System struct {
	cfg   Config
	ctrl  *memctrl.Controller
	hier  *cache.Hierarchy
	cores []*cpu.Core
	apps  []string

	now     int64 // current CPU cycle, for the trace capture
	capBase int64 // capture timebase (reset to the warmup boundary)
	cap     *trace.Capture

	// Telemetry (nil when Config.Obs is zero; see obswire.go). The
	// recorder epoch is configured in DRAM cycles, so the CPU-cycle run
	// loop keeps the boundary pre-converted: epochCPU = epoch * cpm and
	// recNext is the next sample point in CPU cycles.
	rec      *obs.Recorder
	ev       *obs.EventLog
	cpm      int64
	epochCPU int64
	recNext  int64

	// skipped counts CPU cycles the run loop fast-forwarded over (zero
	// under Config.NoSkip) and ticks the loop iterations it actually
	// executed; tests use them to prove the skip path engaged and to pin
	// the executed-ticks budget semantics.
	skipped int64
	ticks   int64

	// cal is the parsed power-model calibration (Config.PowerCal),
	// stamped into every Result so energy bands travel with the numbers.
	cal power.Calibration

	// cycle is the run loop's position. It lives on the System (not as a
	// Run local) so Warmup and Measure can run as separate phases with a
	// checkpoint in between; ticks carries the executed-tick budget across
	// the same boundary.
	cycle  int64
	warmed bool
}

// New assembles a system from the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ActiveCores == 0 {
		cfg.ActiveCores = cfg.Cores
	}
	// Normalize the workload spelling once, so Results, run keys, and
	// checkpoint fingerprints agree across equivalent user spellings
	// ("gups" vs "GUPS", mix specs with stray spaces).
	cfg.Workload = workload.Canonical(cfg.Workload)

	ctrl, err := memctrl.New(cfg.ctrlConfig())
	if err != nil {
		return nil, err
	}

	s := &System{cfg: cfg, ctrl: ctrl}
	s.cal, _ = power.ParseCalibration(cfg.PowerCal) // vetted by Validate; "" is the nominal model
	var backend cache.Backend = ctrl
	if cfg.Capture {
		s.cap = &trace.Capture{Inner: ctrl, Now: func() int64 { return s.now - s.capBase }}
		backend = s.cap
	}

	ccfg := cache.DefaultConfig(cfg.ActiveCores)
	ccfg.DBI = cfg.DBI
	ccfg.RowKey = ctrl.RowKey
	hier, err := cache.New(ccfg, backend)
	if err != nil {
		return nil, err
	}
	s.hier = hier

	var apps []string
	if cfg.Generator != nil {
		apps = make([]string, cfg.ActiveCores)
		for i := range apps {
			apps[i] = cfg.Workload // label only
		}
	} else {
		apps, err = workload.Set(cfg.Workload, cfg.Cores)
		if err != nil {
			return nil, err
		}
		apps = apps[:cfg.ActiveCores]
	}
	s.apps = apps
	for i, app := range apps {
		region := workload.Region{Base: uint64(i) << 30, Bytes: 1 << 30}
		var gen cpu.Generator
		if cfg.Generator != nil {
			gen = cfg.Generator(i, cfg.Seed, region)
		} else {
			gen, err = workload.New(app, i, cfg.Seed, region)
			if err != nil {
				return nil, err
			}
		}
		c, err := cpu.New(i, cfg.CPU, gen, hier)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}
	if cfg.Obs.enabled() {
		s.attachObs()
	}
	return s, nil
}

// maxTicks returns the no-progress budget. It counts ticks executed
// (cycles the loop actually simulated), not cycles elapsed:
// fast-forwarding can push the cycle number arbitrarily far without doing
// work, and work — not wall-clock position — is what a hung run fails to
// convert into retirement. With skipping off the two measures coincide, so
// the seed's abort behaviour is unchanged.
func (s *System) maxTicks() int64 {
	if s.cfg.MaxCycles != 0 {
		return s.cfg.MaxCycles
	}
	return (s.cfg.InstrPerCore+s.cfg.WarmupPerCore)*2000 + 10_000_000
}

// Run executes the configured number of instructions on every active core
// and returns the collected metrics. Cores that finish early keep running
// (to preserve contention) until the slowest core reaches its target, as in
// multiprogrammed SPEC-rate methodology; each core's IPC is measured at its
// own finish point.
func (s *System) Run() (Result, error) {
	if err := s.Warmup(); err != nil {
		return Result{}, err
	}
	return s.Measure()
}

// advance is the run loop, the one place simulated time moves: it ticks the
// hierarchy, the cores and the controller, fast-forwarding between events,
// until every active core has retired target instructions, and returns the
// number of cycles each core took, counted from the call. phase names the
// caller in the no-progress error. The recorder is sampled once Measure has
// armed recNext, never during warmup.
func (s *System) advance(phase string, target int64) ([]int64, error) {
	maxTicks := s.maxTicks()
	// With skipping on, a cycle another component forces the loop to
	// execute still need not Tick a blocked core: a quiescent core's Tick
	// is a provable no-op (the NextEvent contract), so SkipCycles stands in
	// for it. With skipping off every component ticks every cycle, keeping
	// the baseline faithful to per-cycle operation.
	skipIdle := !s.cfg.NoSkip
	cycle, ticks := s.cycle, s.ticks
	defer func() { s.cycle, s.ticks = cycle, ticks }()

	finish := make([]int64, len(s.cores)) // 0: still running
	remaining := len(s.cores)
	start := cycle
	for remaining > 0 {
		if ticks >= maxTicks {
			return nil, fmt.Errorf("sim: %s made no progress after %d executed ticks (cycle %d, %d cores unfinished)", phase, ticks, cycle, remaining)
		}
		ticks++
		s.now = cycle
		s.hier.Tick(cycle)
		for i, c := range s.cores {
			if skipIdle && c.Quiescent() {
				c.SkipCycles(1)
				continue // cannot retire, so the finish check is moot
			}
			c.Tick(cycle)
			if finish[i] == 0 && c.Retired >= target {
				finish[i] = cycle - start + 1
				remaining--
			}
		}
		s.ctrl.Tick(cycle)
		cycle++
		if remaining > 0 {
			var err error
			if cycle, err = s.fastForward(cycle); err != nil {
				return nil, err
			}
		}
		if s.recNext > 0 && cycle >= s.recNext {
			// Settle lazy accrual so the sampled energy and rank-state
			// counters match per-cycle ticking exactly (no-op there).
			s.ctrl.CatchUp(cycle)
			s.rec.Sample(cycle / s.cpm)
			s.recNext += s.epochCPU
		}
	}
	// Fast-forwarding defers background-energy accrual; settle it at the
	// phase boundary, where statistics are reset or read.
	s.ctrl.CatchUp(cycle)
	return finish, nil
}

// Warmup runs Config.WarmupPerCore instructions per core and resets every
// statistic, so Measure sees steady-state cache and DRAM behaviour. It is
// the first half of Run, split out so the post-warmup state can be
// checkpointed (Checkpoint) and reused (Restore) across runs that share a
// warmup fingerprint. With no warmup configured it is a no-op.
func (s *System) Warmup() error {
	if s.cfg.WarmupPerCore <= 0 || s.warmed {
		return nil
	}
	if _, err := s.advance("warmup", s.cfg.WarmupPerCore); err != nil {
		return err
	}
	for _, c := range s.cores {
		c.ResetStats()
	}
	s.hier.ResetStats()
	s.ctrl.ResetStats()
	if s.cap != nil {
		// Drop warmup traffic and rebase capture time to the measured
		// window so replays start at cycle zero.
		s.cap.Trace.Records = s.cap.Trace.Records[:0]
		s.capBase = s.cycle
	}
	// Drop warmup events so the ring holds only measured-window
	// activity.
	s.ev.Reset()
	s.warmed = true
	return nil
}

// Measure runs the measured window — the second half of Run — and returns
// the collected metrics. Call it after Warmup (or after Restore installed
// a checkpointed warmup state).
func (s *System) Measure() (Result, error) {
	start := s.cycle
	if s.rec != nil {
		// Snapshot counter baselines at the measurement-window start so
		// the first epoch's deltas exclude warmup, and arm the first
		// epoch boundary (in CPU cycles; the recorder itself runs on the
		// DRAM clock).
		s.rec.Begin(start / s.cpm)
		s.recNext = start + s.epochCPU
	}
	finish, err := s.advance("measurement", s.cfg.InstrPerCore)
	if err != nil {
		return Result{}, err
	}
	if s.rec != nil {
		s.rec.Flush(s.cycle / s.cpm)
	}

	res := Result{
		Workload: s.cfg.Workload,
		Scheme:   s.cfg.Scheme,
		Policy:   s.cfg.Policy,
		DBI:      s.cfg.DBI,
		Apps:     append([]string(nil), s.apps...),
		Cycles:   s.cycle - start,
		CoreIPC:  make([]float64, len(s.cores)),
		Ctrl:     s.ctrl.Stats(),
		Dev:      s.ctrl.DeviceStats(),
		Cache:    s.hier.Stats,
		Energy:   s.ctrl.Energy(),
		Cal:      s.cal,
	}
	for i, n := range finish {
		res.CoreIPC[i] = float64(s.cfg.InstrPerCore) / float64(n)
	}
	return res, nil
}

// fastForward decides the next cycle the run loop executes, given that
// next (= the cycle just executed, plus one) is the default. When every
// component reports that nothing can change before some future cycle, the
// loop jumps straight there: the skipped ticks are exact no-ops, which is
// what each component's NextEvent contract guarantees. The jump is
// clamped to the next telemetry epoch boundary so sample timing (and
// therefore the recorded timeline) is untouched, and the controller's
// DRAM-clock stride is realigned so arrival stamps match per-cycle
// ticking bit for bit. A system that is totally quiescent — every
// component at FarFuture while cores still owe instructions — can never
// make progress again, so that is reported as an error immediately
// rather than burning the tick budget.
func (s *System) fastForward(next int64) (int64, error) {
	if s.cfg.NoSkip {
		return next, nil
	}
	now := next - 1
	// Cores first: a core that retired or dispatched this tick reports
	// now+1, which nothing can beat, so the scan stops without paying for
	// the controller's per-channel walk (the common case while any core
	// is making progress). min is commutative, so the order cannot change
	// the jump target.
	target := int64(core.FarFuture)
	for _, c := range s.cores {
		if t := c.NextEvent(now); t < target {
			if t <= next {
				return next, nil
			}
			target = t
		}
	}
	if t := s.hier.NextEvent(now); t < target {
		target = t
	}
	if t := s.ctrl.NextEvent(now); t < target {
		target = t
	}
	if target >= core.FarFuture {
		return 0, fmt.Errorf("sim: no progress possible: all components quiescent at cycle %d", now)
	}
	if s.recNext > 0 && target > s.recNext {
		target = s.recNext
	}
	if target <= next {
		return next, nil
	}
	s.ctrl.SkipTo(target)
	delta := target - next
	s.skipped += delta
	for _, c := range s.cores {
		c.SkipCycles(delta)
	}
	return target, nil
}

// Skipped returns the number of CPU cycles fast-forwarded over so far
// (always zero with Config.NoSkip). Exposed so tests and benchmarks can
// verify the event-driven path actually engaged.
func (s *System) Skipped() int64 { return s.skipped }

// Trace returns the request stream captured over the measured window, or
// nil when Config.Capture was off. Replay it with the trace package.
func (s *System) Trace() *trace.Trace {
	if s.cap == nil {
		return nil
	}
	return &s.cap.Trace
}

// LatSpans returns the sampled per-request latency spans collected over
// the measured window, oldest first per channel (empty unless
// Config.LatBreak and LatSpanEvery are set). The obs package's trace
// exporter turns them into a Chrome-trace/Perfetto file.
func (s *System) LatSpans() []memctrl.LatSpan { return s.ctrl.LatSpans() }

// Controller exposes the memory controller.
func (s *System) Controller() *memctrl.Controller { return s.ctrl }

// RunOne is the convenience path: build and run a config.
func RunOne(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// interface checks
var _ cache.Backend = (*memctrl.Controller)(nil)
var _ cpu.MemPort = (*cache.Hierarchy)(nil)
var _ = dram.DefaultTiming
var _ = power.DefaultChipPowers
