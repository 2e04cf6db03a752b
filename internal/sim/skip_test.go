package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
)

// skipCfg is a small but non-trivial configuration for the skip-vs-noskip
// identity checks: two cores, enough instructions to reach steady state
// through a warmup, and full telemetry (epoch sampling plus the command-
// level event trace) so the comparison covers timelines and event logs,
// not just end-of-run Results.
func skipCfg(workload string) Config {
	cfg := DefaultConfig(workload)
	cfg.Cores = 2
	cfg.InstrPerCore = 8_000
	cfg.WarmupPerCore = 2_000
	cfg.Obs = ObsConfig{EpochCycles: 512, EventLevel: obs.LevelCmd}
	return cfg
}

// fourChannels and fourChannelHammer are the multi-channel variant cells
// of the skip and checkpoint identity matrices (the default controller
// has two channels): plain traffic, and the double-sided hammer with
// Alert/RFM mitigation armed (per-channel alert deadlines and RFM state).
// ddr31866 is their fractional-clock cell: 24 CPU cycles per 7 memory
// cycles, so DRAM ticks fall three and four CPU cycles apart.
func fourChannels(c *Config) { c.Channels = 4 }

func ddr31866(c *Config) {
	g, _ := dram.SpeedGradeByName("DDR3-1866")
	c.Timing = &g.Timing
}

// functionalWarm is the split-warmup cell of both matrices: a functional
// warm, DBI on, before skipCfg's detailed warmup, on active of four cores.
// 240 k functional instructions over the active cores make ~40 k L2 misses
// of GUPS, enough for dirty evictions and DBI sweeps to reach the sink.
func functionalWarm(active int) func(*Config) {
	return func(c *Config) {
		c.Cores, c.ActiveCores, c.DBI = 4, active, true
		c.FunctionalWarmupPerCore = 240_000 / int64(active)
	}
}

// functionalOnly is the shape the Runner builds for a single-core run: the
// functional warm alone, with no detailed warmup after it.
func functionalOnly(c *Config) {
	functionalWarm(1)(c)
	c.WarmupPerCore = 0
}

func fourChannelHammer(c *Config) {
	c.Channels = 4
	c.Workload = "HammerDouble"
	c.MitThreshold = hammerMitThreshold
}

// runBoth executes cfg with fast-forwarding on and off and returns both
// systems with their results.
func runBoth(t *testing.T, cfg Config) (skip, noskip *System, rs, rn Result) {
	t.Helper()
	run := func(off bool) (*System, Result) {
		c := cfg
		c.NoSkip = off
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s, r
	}
	skip, rs = run(false)
	noskip, rn = run(true)
	return
}

// checkIdentical asserts the two runs agree on everything observable: the
// Result struct, the sampled epoch timeline, and the structured event log.
func checkIdentical(t *testing.T, skip, noskip *System, rs, rn Result) {
	t.Helper()
	if !reflect.DeepEqual(rs, rn) {
		t.Errorf("Results differ between skip and noskip:\nskip:   %+v\nnoskip: %+v", rs, rn)
	}
	ss, sn := skip.Recorder().Snapshot(), noskip.Recorder().Snapshot()
	if !reflect.DeepEqual(ss, sn) {
		t.Errorf("epoch timelines differ: skip %d rows, noskip %d rows", len(ss.Rows), len(sn.Rows))
	}
	es, en := skip.Events().Events(), noskip.Events().Events()
	if !reflect.DeepEqual(es, en) {
		n := len(es)
		if len(en) < n {
			n = len(en)
		}
		for i := 0; i < n; i++ {
			if es[i] != en[i] {
				t.Errorf("event logs diverge at entry %d: skip %+v, noskip %+v", i, es[i], en[i])
				return
			}
		}
		t.Errorf("event logs differ in length: skip %d, noskip %d", len(es), len(en))
	}
}

// checkEpochRows asserts a timeline's rows close consecutive whole epochs of
// the DRAM clock; only the final, flushed row may be shorter.
func checkEpochRows(t *testing.T, snap obs.TimelineSnapshot) {
	t.Helper()
	if len(snap.Rows) < 2 {
		t.Fatalf("timeline has %d rows; the epoch check needs at least two", len(snap.Rows))
	}
	e := float64(snap.EpochCycles)
	last := len(snap.Rows) - 1
	for i, row := range snap.Rows[:last] {
		if row[1] != float64(i+1)*e {
			t.Fatalf("timeline row %d closes at DRAM cycle %v, want %v (epoch %v)", i, row[1], float64(i+1)*e, e)
		}
	}
	if end := snap.Rows[last][1]; end <= float64(last)*e || end > float64(last+1)*e {
		t.Errorf("final timeline row closes at DRAM cycle %v, want within (%v, %v]", end, float64(last)*e, float64(last+1)*e)
	}
}

// TestEpochsSpanWholeDRAMTicks pins sampleAt at the fractional clocks: from
// any CPU cycle a measured window starts at, the k-th sample point has run
// exactly k·E more DRAM ticks than the window's start and reads memory cycle
// base + k·E, so no epoch is a tick long or short and no row repeats.
func TestEpochsSpanWholeDRAMTicks(t *testing.T) {
	t.Parallel()
	for _, bin := range []string{"DDR3-1333", "DDR3-1866"} {
		g, _ := dram.SpeedGradeByName(bin)
		cfg := DefaultConfig("GUPS")
		cfg.Timing = &g.Timing
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// ticksBefore counts the DRAM ticks run at CPU cycles below c.
		ticksBefore := func(c int64) int64 {
			n := int64(0)
			for s.ctrl.CPUAt(n) < c {
				n++
			}
			return n
		}
		for start := int64(0); start < 48; start++ {
			base := s.ctrl.MemAt(start)
			s.recShift = start - s.ctrl.CPUAt(base)
			for _, e := range []int64{1, 2, 3, 7} {
				for k := int64(1); k <= 8; k++ {
					at := s.sampleAt(base + k*e)
					if got, want := ticksBefore(at)-ticksBefore(start), k*e; got != want {
						t.Fatalf("%s, start %d, epoch %d: sample %d at CPU cycle %d follows %d DRAM ticks, want %d", bin, start, e, k, at, got, want)
					}
					if got := s.ctrl.MemAt(at); got != base+k*e {
						t.Fatalf("%s, start %d, epoch %d: sample %d at CPU cycle %d reads memory cycle %d, want %d", bin, start, e, k, at, got, base+k*e)
					}
				}
			}
		}
	}
}

// TestSkipBitIdentityMatrix is the tentpole's correctness contract: for
// every activation scheme crossed with representative workloads (plus the
// DBI, ECC, and four-channel variants), a fast-forwarded run must be
// bit-identical to a per-cycle run — same Result, same epoch timeline,
// same event log. On the
// memory-bound workloads it additionally proves the skip path engaged at
// all (Skipped() > 0), so the matrix cannot pass vacuously.
func TestSkipBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	type variant struct {
		name string
		mod  func(*Config)
	}
	variants := []variant{{"plain", func(*Config) {}}}
	for _, sch := range memctrl.Schemes() {
		for _, wl := range []string{"GUPS", "LinkedList", "bzip2"} {
			sch, wl := sch, wl
			name := fmt.Sprintf("%s/%s", sch, wl)
			vs := variants
			if sch == memctrl.PRA && wl == "GUPS" {
				// The case-study variants ride on one cell of the matrix
				// rather than multiplying the whole sweep.
				vs = []variant{
					{"plain", func(*Config) {}},
					{"DBI", func(c *Config) { c.DBI = true }},
					{"ECC", func(c *Config) { c.ECC = true }},
					{"4ch", fourChannels},
					{"4ch-hammer", fourChannelHammer},
					{"DDR3-1866", ddr31866},
					{"functional-1core", functionalWarm(1)},
					{"functional-4core", functionalWarm(4)},
					{"functional-only", functionalOnly},
				}
			}
			for _, v := range vs {
				v := v
				sub := name
				if v.name != "plain" {
					sub = name + "/" + v.name
				}
				t.Run(sub, func(t *testing.T) {
					t.Parallel()
					cfg := skipCfg(wl)
					cfg.Scheme = sch
					v.mod(&cfg)
					skip, noskip, rs, rn := runBoth(t, cfg)
					checkIdentical(t, skip, noskip, rs, rn)
					checkEpochRows(t, skip.Recorder().Snapshot())
					if cfg.MitThreshold > 0 && rs.Ctrl.Alerts == 0 {
						t.Error("hammer cell raised no alerts; the mitigation cell is vacuous")
					}
					if wl != "bzip2" && skip.cycle == skip.ticks {
						t.Error("memory-bound run never fast-forwarded; the identity check is vacuous")
					}
					if noskip.cycle != noskip.ticks {
						t.Errorf("NoSkip run reports %d skipped cycles", noskip.cycle-noskip.ticks)
					}
				})
			}
		}
	}
}

// TestSkipBudgetCountsExecutedTicks pins the MaxCycles semantics the
// fast-forward path depends on: the no-progress budget is spent in ticks
// the loop actually executed, not in cycles elapsed. A memory-bound run
// whose elapsed cycle count far exceeds the budget must still complete as
// long as its executed ticks fit, because skipped cycles are free.
func TestSkipBudgetCountsExecutedTicks(t *testing.T) {
	t.Parallel()
	cfg := skipCfg("LinkedList")
	cfg.Obs = ObsConfig{}
	cfg.ActiveCores = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.cycle == s.ticks {
		t.Fatal("LinkedList single-core run never skipped; budget test needs an idle-heavy run")
	}
	if res.Cycles <= 0 {
		t.Fatal("run reported no cycles")
	}
	// Every elapsed cycle is either executed or skipped over.
	ticks, elapsed := s.ticks, s.cycle
	budget := ticks + ticks/2 // fits executed ticks, far below elapsed cycles
	if budget >= elapsed {
		t.Skipf("run not idle-dominated enough to separate the measures (ticks %d, elapsed %d)", ticks, elapsed)
	}
	cfg.MaxCycles = budget
	if _, err := RunOne(cfg); err != nil {
		t.Errorf("run aborted under a tick budget it fits (budget %d ticks, %d elapsed cycles): %v",
			budget, elapsed, err)
	}
	// The same budget interpreted as elapsed cycles would have aborted:
	// per-cycle mode spends one tick per cycle and must run out.
	cfg.NoSkip = true
	if _, err := RunOne(cfg); err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Errorf("per-cycle run under the same budget should exhaust it, got %v", err)
	}
}

// TestMaxCyclesAbortsBothModes covers the abort path in both run modes: a
// tiny budget must produce the no-progress error naming the phase it ran
// out in, never a hang, whether the loop fast-forwards or ticks every cycle.
func TestMaxCyclesAbortsBothModes(t *testing.T) {
	t.Parallel()
	for _, noskip := range []bool{false, true} {
		for warmup, phase := range map[int64]string{0: "measurement", 3000: "warmup"} {
			cfg := quickCfg("GUPS")
			cfg.MaxCycles = 10
			cfg.WarmupPerCore = warmup
			cfg.NoSkip = noskip
			_, err := RunOne(cfg)
			if want := phase + " made no progress"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("NoSkip=%v, warmup %d: tiny MaxCycles must abort with %q, got %v", noskip, warmup, want, err)
			}
		}
	}
}

// FuzzSkipEpochBoundaries randomizes the interaction the fast-forward path
// must never perturb: the telemetry epoch boundary (which clamps every
// jump), the instruction target, and the workload seed. For any input the
// skip and per-cycle runs must agree on the Result and on the sampled
// timeline.
func FuzzSkipEpochBoundaries(f *testing.F) {
	f.Add(int64(64), int64(3_000), uint64(1), uint8(0))
	f.Add(int64(1), int64(1_000), uint64(7), uint8(1))
	f.Add(int64(997), int64(5_000), uint64(42), uint8(2))
	f.Add(int64(4096), int64(2_000), uint64(3), uint8(0))
	f.Fuzz(func(t *testing.T, epoch, instr int64, seed uint64, wsel uint8) {
		if epoch < 1 || epoch > 1<<20 || instr < 100 || instr > 20_000 {
			t.Skip()
		}
		workloads := []string{"GUPS", "LinkedList", "bzip2"}
		cfg := DefaultConfig(workloads[int(wsel)%len(workloads)])
		cfg.Cores = 2
		cfg.InstrPerCore = instr
		cfg.WarmupPerCore = instr / 4
		cfg.Seed = seed%1000 + 1
		cfg.Obs = ObsConfig{EpochCycles: epoch}
		run := func(off bool) (Result, obs.TimelineSnapshot) {
			c := cfg
			c.NoSkip = off
			s, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r, s.Recorder().Snapshot()
		}
		rs, ts := run(false)
		rn, tn := run(true)
		if !reflect.DeepEqual(rs, rn) {
			t.Errorf("Results differ (epoch %d, instr %d, seed %d)", epoch, instr, seed)
		}
		if !reflect.DeepEqual(ts, tn) {
			t.Errorf("timelines differ (epoch %d, instr %d, seed %d): %d vs %d rows",
				epoch, instr, seed, len(ts.Rows), len(tn.Rows))
		}
	})
}
