package dram_test

import (
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/sim"
)

// referee returns the checker for one channel of a run: the timing and
// activation weighting the paper's schemes give the device. SDS delivers its
// chip mask on the DM pins (no mask cycle) and keeps full tRRD/tFAW weights;
// FGA and the Half-DRAM schemes use the Half-DRAM organization, which halves
// the weight.
func referee(cfg sim.Config) *checker {
	t := dram.DefaultTiming()
	if cfg.Timing != nil {
		t = *cfg.Timing
	}
	sds := cfg.Scheme == memctrl.SDS
	if cfg.NoMaskCycle || sds {
		t.PRAMaskCycles = 0
	}
	half := cfg.Scheme == memctrl.HalfDRAM || cfg.Scheme == memctrl.HalfDRAMPRA || cfg.Scheme == memctrl.FGA
	return newChecker(t, dram.DefaultGeometry(), half, cfg.NoTimingRelax || sds)
}

// TestCheckerOverWholeStackRuns attaches the checker to every channel of
// cold full-system runs — the cells of sim's skip bit-identity matrix (every
// scheme on a random, a pointer-chasing and a compute-bound workload; four
// channels, plain and hammered under Alert/RFM mitigation; DBI) plus the
// refresh and low-power disciplines — so the command streams the scheduler
// actually produces are held to the rules, not only the driver's.
func TestCheckerOverWholeStackRuns(t *testing.T) {
	t.Parallel()
	type cell struct {
		name string
		mod  func(*sim.Config)
	}
	var cells []cell
	for _, sch := range memctrl.Schemes() {
		for _, wl := range []string{"GUPS", "LinkedList", "bzip2"} {
			cells = append(cells, cell{sch.String() + "/" + wl, func(c *sim.Config) { c.Scheme, c.Workload = sch, wl }})
		}
	}
	for _, v := range []cell{
		{"4ch", func(c *sim.Config) { c.Channels = 4 }},
		{"4ch-hammer", func(c *sim.Config) { c.Channels, c.Workload, c.MitThreshold = 4, "HammerDouble", 4 }},
		{"DBI", func(c *sim.Config) { c.DBI = true }},
		{"perbank", func(c *sim.Config) { c.RefreshMode = memctrl.RefreshPerBank }},
		{"elastic", func(c *sim.Config) { c.RefreshMode = memctrl.RefreshElastic }},
		{"pdtimed-sr", func(c *sim.Config) { c.PDPolicy, c.PDTimeout, c.SRTimeout = memctrl.PDTimed, 64, 512 }},
		{"openpage-apd", func(c *sim.Config) { c.Policy, c.APD = memctrl.OpenPage, true }},
	} {
		cells = append(cells, cell{"pra/GUPS/" + v.name, func(c *sim.Config) {
			c.Scheme, c.Workload = memctrl.PRA, "GUPS"
			v.mod(c)
		}})
	}
	for _, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.DefaultConfig("")
			// The warmup is part of the refereed stream; together with the
			// measured window it is just long enough for GUPS to evict dirty
			// lines, whose partial writes are what PRA changes.
			cfg.Cores, cfg.InstrPerCore, cfg.WarmupPerCore = 2, 50_000, 50_000
			cl.mod(&cfg)
			sys, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var (
				checkers = map[int]*checker{}
				n, part  int
				bad      error
			)
			sys.Controller().OnCommand(func(ch int, e dram.CmdEvent) {
				ck := checkers[ch]
				if ck == nil {
					ck = referee(cfg)
					checkers[ch] = ck
				}
				if e.Kind == dram.CmdAct && e.Mask != core.FullMask {
					part++
				}
				if n++; bad == nil {
					bad = ck.check(e)
				}
			})
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if bad != nil {
				t.Fatal(bad)
			}
			if n < 1000 {
				t.Fatalf("the run issued only %d commands", n)
			}
			if (cfg.Scheme == memctrl.PRA || cfg.Scheme == memctrl.HalfDRAMPRA) && cfg.Workload == "GUPS" && part == 0 {
				t.Fatal("no partial activation: the PRA rules went unrefereed")
			}
			t.Logf("%d commands on %d channels, %d partial ACTs", n, len(checkers), part)
		})
	}
}
