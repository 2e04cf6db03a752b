package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

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
func fourChannels(c *Config) { c.Channels = 4 }

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
					if cfg.MitThreshold > 0 && rs.Ctrl.Alerts == 0 {
						t.Error("hammer cell raised no alerts; the mitigation cell is vacuous")
					}
					if wl != "bzip2" && skip.Skipped() == 0 {
						t.Error("memory-bound run never fast-forwarded; the identity check is vacuous")
					}
					if noskip.Skipped() != 0 {
						t.Errorf("NoSkip run reports %d skipped cycles", noskip.Skipped())
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
	if s.Skipped() == 0 {
		t.Fatal("LinkedList single-core run never skipped; budget test needs an idle-heavy run")
	}
	if res.Cycles <= 0 {
		t.Fatal("run reported no cycles")
	}
	// Every elapsed cycle is either executed or skipped over.
	ticks, elapsed := s.ticks, s.ticks+s.Skipped()
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
// tiny budget must produce the no-progress error, never a hang, whether
// the loop fast-forwards or ticks every cycle.
func TestMaxCyclesAbortsBothModes(t *testing.T) {
	t.Parallel()
	for _, noskip := range []bool{false, true} {
		cfg := quickCfg("GUPS")
		cfg.MaxCycles = 10
		cfg.NoSkip = noskip
		_, err := RunOne(cfg)
		if err == nil || !strings.Contains(err.Error(), "no progress") {
			t.Errorf("NoSkip=%v: tiny MaxCycles must abort with a progress error, got %v", noskip, err)
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
