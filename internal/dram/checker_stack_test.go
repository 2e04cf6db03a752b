package dram_test

import (
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/sim"
)

// referees returns the checker and the energy referee for one channel of a
// run: the timing, activation weighting and energy scaling the paper's
// schemes give the device. SDS delivers its chip mask on the DM pins (no
// mask cycle), keeps full tRRD/tFAW weights and scales activation energy
// linearly in chips; FGA and the Half-DRAM schemes use the Half-DRAM
// organization, which halves the weight and the activated MATs. ECC adds a
// chip to every rank.
func referees(cfg sim.Config) (*checker, *energyReferee) {
	t := dram.DefaultTiming()
	if cfg.Timing != nil {
		t = *cfg.Timing
	}
	sds := cfg.Scheme == memctrl.SDS
	half := cfg.Scheme == memctrl.HalfDRAM || cfg.Scheme == memctrl.HalfDRAMPRA || cfg.Scheme == memctrl.FGA
	ecc := 0
	if cfg.ECC {
		ecc = 1
	}
	er := newEnergyReferee(t, dram.DefaultGeometry(), half, sds, ecc)
	if cfg.NoMaskCycle || sds {
		t.PRAMaskCycles = 0
	}
	return newChecker(t, dram.DefaultGeometry(), half, cfg.NoTimingRelax || sds), er
}

// TestCheckerOverWholeStackRuns attaches the checker and the energy referee
// to every channel of cold full-system runs — the cells of sim's skip
// bit-identity matrix (every scheme on a random, a pointer-chasing and a
// compute-bound workload; four channels, plain and hammered under Alert/RFM
// mitigation; DBI), ECC, every speed grade, and the refresh and low-power
// disciplines — so the command streams the scheduler actually produces are
// held to the rules, not only the driver's, and the energy the controller
// reports for the measured window is the energy its stream spent.
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
		{"ECC", func(c *sim.Config) { c.ECC = true }},
		{"perbank", func(c *sim.Config) { c.RefreshMode = dram.RefPerBank }},
		{"elastic", func(c *sim.Config) { c.RefreshMode = dram.RefElastic }},
		{"pdtimed-sr", func(c *sim.Config) { c.PDPolicy, c.PDTimeout, c.SRTimeout = memctrl.PDTimed, 64, 512 }},
		{"openpage-apd", func(c *sim.Config) { c.Policy, c.APD = memctrl.OpenPage, true }},
		{"pdqueue", func(c *sim.Config) { c.PDPolicy, c.PDTimeout = memctrl.PDQueueAware, 64 }},
		{"pdslow", func(c *sim.Config) { c.PDSlowExit = true }},
		{"pdnone", func(c *sim.Config) { c.PDPolicy = memctrl.PDNone }},
	} {
		cells = append(cells, cell{"pra/GUPS/" + v.name, func(c *sim.Config) {
			c.Scheme, c.Workload = memctrl.PRA, "GUPS"
			v.mod(c)
		}})
	}
	for _, g := range dram.SpeedGrades() {
		cells = append(cells, cell{"pra/GUPS/" + g.Name, func(c *sim.Config) {
			c.Scheme, c.Workload = memctrl.PRA, "GUPS"
			c.Timing = &g.Timing
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
				energy   = map[int]*energyReferee{}
				n, part  int
				bad      error
				warm     = int64(-1) // the measured window's first cycle, once known
			)
			ctrl := sys.Controller()
			ctrl.OnCommand(func(ch int, e dram.CmdEvent) {
				ck := checkers[ch]
				if ck == nil {
					ck, energy[ch] = referees(cfg)
					checkers[ch] = ck
					if warm >= 0 {
						energy[ch].reset(warm)
					}
				}
				energy[ch].observe(e)
				if e.Kind == dram.CmdAct && e.Mask != core.FullMask {
					part++
				}
				if n++; bad == nil {
					bad = ck.check(e)
				}
			})
			// The controller drops the warmup's energy at the window start;
			// its clock then stands at the window's first cycle, and at the
			// end at the first cycle past it.
			if err := sys.Warmup(); err != nil {
				t.Fatal(err)
			}
			warm = ctrl.MemCycle()
			for _, er := range energy {
				er.reset(warm)
			}
			if _, err := sys.Measure(); err != nil {
				t.Fatal(err)
			}
			if bad != nil {
				t.Fatal(bad)
			}
			var want power.Breakdown
			for _, er := range energy {
				want = want.Add(er.energy(ctrl.MemCycle()))
			}
			if err := agree(ctrl.Energy(), want); err != nil {
				t.Fatal(err)
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
