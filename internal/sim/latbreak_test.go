package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/stats"
)

// latCfg is skipCfg with latency attribution and span sampling armed —
// the configuration the conservation matrix and the identity legs share.
func latCfg(workload string) Config {
	cfg := skipCfg(workload)
	cfg.LatBreak = true
	cfg.LatSpanEvery = 7
	return cfg
}

// checkConserved asserts the attribution contract on one finished run: the
// component breakdowns sum exactly to the always-on latency totals, no
// component is negative, and the histogram populations match the request
// counts the controller served.
func checkConserved(t *testing.T, res Result) {
	t.Helper()
	if got, want := res.Ctrl.ReadLatBreak.Sum(), res.Ctrl.ReadLatencySum; got != want {
		t.Errorf("read breakdown sums to %d cycles, latency total is %d", got, want)
	}
	if got, want := res.Ctrl.WriteLatBreak.Sum(), res.Ctrl.WriteLatencySum; got != want {
		t.Errorf("write breakdown sums to %d cycles, latency total is %d", got, want)
	}
	for comp := memctrl.LatComponent(0); comp < memctrl.NumLatComponents; comp++ {
		if res.Ctrl.ReadLatBreak[comp] < 0 || res.Ctrl.WriteLatBreak[comp] < 0 {
			t.Errorf("component %s is negative: read %d, write %d",
				comp, res.Ctrl.ReadLatBreak[comp], res.Ctrl.WriteLatBreak[comp])
		}
	}
	if got, want := res.Ctrl.ReadLatHist.N, res.Ctrl.ReadsServed; got != want {
		t.Errorf("read histogram holds %d samples, controller served %d reads", got, want)
	}
	if got, want := res.Ctrl.WriteLatHist.N, res.Ctrl.WritesServed; got != want {
		t.Errorf("write histogram holds %d samples, controller served %d writes", got, want)
	}
}

// TestLatAttributionConservationMatrix is the tentpole's correctness
// contract end to end: for every activation scheme crossed with
// representative workloads, with attribution on, (1) a fast-forwarded run
// is bit-identical to a per-cycle run, (2) a checkpoint-restored run is
// bit-identical to the monolithic run, and (3) every leg satisfies the
// conservation invariant — components sum exactly to the latency totals —
// including span-level conservation for every sampled request.
func TestLatAttributionConservationMatrix(t *testing.T) {
	t.Parallel()
	for _, sch := range memctrl.Schemes() {
		for _, wl := range []string{"GUPS", "LinkedList", "bzip2"} {
			sch, wl := sch, wl
			t.Run(fmt.Sprintf("%s/%s", sch, wl), func(t *testing.T) {
				t.Parallel()
				cfg := latCfg(wl)
				cfg.Scheme = sch
				skip, noskip, rs, rn := runBoth(t, cfg)
				checkIdentical(t, skip, noskip, rs, rn)
				checkConserved(t, rs)

				data := warmAndCheckpoint(t, cfg)
				restored, rr := restoreAndMeasure(t, cfg, data)
				checkIdentical(t, skip, restored, rs, rr)

				spans := skip.LatSpans()
				if wl != "bzip2" && len(spans) == 0 {
					t.Error("memory-bound run sampled no spans; the span checks are vacuous")
				}
				for _, s := range spans {
					if got, want := s.Break.Sum(), s.Done-s.Arrive; got != want {
						t.Errorf("span %+v breakdown sums to %d, lifetime is %d", s.Loc, got, want)
					}
				}
				if !reflect.DeepEqual(spans, restored.LatSpans()) {
					t.Error("restored run sampled different spans than the monolithic run")
				}
			})
		}
	}
}

// TestLatBreakOffResultIdentity proves attribution observes without
// perturbing: the same configuration with LatBreak off yields the exact
// same Result, except for the attribution aggregates themselves (which are
// zero when off). Everything the simulator models — cycles, IPC, energy,
// device stats, the always-on latency sums — must match bit for bit.
func TestLatBreakOffResultIdentity(t *testing.T) {
	t.Parallel()
	cfg := latCfg("GUPS")
	cfg.Scheme = memctrl.PRA
	on, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LatBreak = false
	cfg.LatSpanEvery = 0
	off, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Ctrl.ReadLatBreak.Sum() != 0 || off.Ctrl.ReadLatHist.N != 0 {
		t.Error("attribution aggregates populated with LatBreak off")
	}
	scrub := on
	scrub.Ctrl.ReadLatBreak = memctrl.LatBreakdown{}
	scrub.Ctrl.WriteLatBreak = memctrl.LatBreakdown{}
	scrub.Ctrl.ReadLatHist = stats.LogHist{}
	scrub.Ctrl.WriteLatHist = stats.LogHist{}
	if !reflect.DeepEqual(scrub, off) {
		t.Errorf("results diverge beyond the attribution aggregates:\non:  %+v\noff: %+v", scrub, off)
	}
}

// FuzzLatAttribution stresses the conservation invariant across the edges
// where blame changes hands: randomized workloads and schemes crossed with
// power-down, self-refresh, per-bank refresh, and RowHammer-mitigation
// variants, all of which inject the episodic stall sources the sweep must
// attribute without ever over- or under-counting a cycle.
func FuzzLatAttribution(f *testing.F) {
	f.Add(int64(2_000), uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(1_500), uint64(7), uint8(1), uint8(3), uint8(1))
	f.Add(int64(3_000), uint64(42), uint8(2), uint8(1), uint8(2))
	f.Add(int64(2_500), uint64(9), uint8(0), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, instr int64, seed uint64, wsel, ssel, vsel uint8) {
		if instr < 200 || instr > 5_000 {
			t.Skip()
		}
		workloads := []string{"GUPS", "LinkedList", "bzip2", "HammerSingle"}
		schemes := memctrl.Schemes()
		cfg := DefaultConfig(workloads[int(wsel)%len(workloads)])
		cfg.Scheme = schemes[int(ssel)%len(schemes)]
		cfg.Cores = 2
		cfg.InstrPerCore = instr
		cfg.WarmupPerCore = instr / 2
		cfg.Seed = seed%1000 + 1
		cfg.LatBreak = true
		cfg.LatSpanEvery = 3
		switch vsel % 4 {
		case 1: // aggressive timed power-down with slow (DLL-off) exits
			cfg.PDPolicy = memctrl.PDTimed
			cfg.PDTimeout = 64
			cfg.PDSlowExit = true
		case 2: // self-refresh plus per-bank refresh
			cfg.SRTimeout = 2_000
			cfg.RefreshMode = dram.RefPerBank
		case 3: // RowHammer mitigation with a hair-trigger threshold
			cfg.MitThreshold = 4
		}
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkConserved(t, res)
	})
}
