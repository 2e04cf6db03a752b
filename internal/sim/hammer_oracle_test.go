package sim

import (
	"sort"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/workload"
)

// The analytic-oracle tests for the RowHammer scenario family (DESIGN.md
// §4g). Each hammer generator is built so that its per-row activation
// counts after n DRAM accesses have a closed form (workload.HammerCounts);
// these tests run the full stack — generator, out-of-order core, cache
// hierarchy, controller, DRAM timing model — and demand the activation
// counter table match that closed form EXACTLY. Any caching the generators
// failed to defeat, any reordering of their dependent loads, any
// mis-mapped address bit, or any bug in the counter machinery shows up as
// a count mismatch.
//
// The oracle configuration removes the two legitimate sources of extra
// activations: refresh (a REF forces a precharge, so a request split
// across a refresh re-activates its row — and resets counters besides)
// and the mitigation itself (an RFM does the same). TREFI is pushed past
// the run horizon and the threshold is armed but unreachable, so counting
// is on while nothing ever clears or perturbs it.

// hammerOracleGeom pins the geometry the sweep below iterates (the paper's
// default organization the generators hardcode).
const hammerOracleChannels = 2

func hammerOracleCfg(name string) Config {
	cfg := DefaultConfig(name)
	cfg.Cores = 1
	cfg.InstrPerCore = 12_000
	cfg.WarmupPerCore = 0
	t := dram.DefaultTiming()
	t.TREFI = 1 << 30 // no refresh before the run ends: counters never reset
	cfg.Timing = &t
	cfg.MitThreshold = 1 << 30 // counting armed, threshold unreachable
	return cfg
}

// oracleMapper builds the address mapper cfg's controller decodes with.
func oracleMapper(t *testing.T, cfg Config) *memctrl.AddressMapper {
	t.Helper()
	mc := cfg.ctrlConfig()
	am, err := memctrl.NewAddressMapper(mc.Mapping, mc.Channels, mc.Geom)
	if err != nil {
		t.Fatal(err)
	}
	return am
}

// oracleCompare asserts a bank's tracked counter table equals the analytic
// prediction row for row, reporting every divergence.
func oracleCompare(t *testing.T, got, want map[int]int64) {
	t.Helper()
	rows := map[int]bool{}
	for r := range got {
		rows[r] = true
	}
	for r := range want {
		rows[r] = true
	}
	sorted := make([]int, 0, len(rows))
	for r := range rows {
		sorted = append(sorted, r)
	}
	sort.Ints(sorted)
	for _, r := range sorted {
		if got[r] != want[r] {
			t.Errorf("row %d: simulated count %d, analytic count %d", r, got[r], want[r])
		}
	}
}

// scanCounters sweeps every bank of the system, asserts all activity is
// confined to the expected (channel 0, rank, bank) target, and returns the
// target bank's table plus its total activation count.
func scanCounters(t *testing.T, s *System, wantRank, wantBank int) (map[int]int64, int64) {
	t.Helper()
	ctrl := s.ctrl
	g := dram.DefaultGeometry()
	var got map[int]int64
	var total int64
	for ch := 0; ch < hammerOracleChannels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			for b := 0; b < g.Banks; b++ {
				counts := ctrl.RowCounts(ch, r, b)
				if ch == 0 && r == wantRank && b == wantBank {
					got = counts
					for _, c := range counts {
						total += c
					}
					continue
				}
				if len(counts) != 0 {
					t.Errorf("bank confinement violated: ch%d rank%d bank%d holds %d counted rows",
						ch, r, b, len(counts))
				}
			}
		}
	}
	return got, total
}

// TestHammerAnalyticOracle is the tentpole's headline check: for every
// adversarial generator, analytic counts == simulated counts, exactly.
func TestHammerAnalyticOracle(t *testing.T) {
	t.Parallel()
	for _, name := range workload.HammerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := hammerOracleCfg(name)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			region := workload.Region{Base: 0, Bytes: 1 << 30}
			rank, bank, _ := workload.HammerTarget(0, region)
			got, total := scanCounters(t, s, rank, bank)
			if total == 0 {
				t.Fatal("no activations reached the target bank; the oracle is vacuous")
			}
			want, err := workload.HammerCounts(name, 0, region, total)
			if err != nil {
				t.Fatal(err)
			}
			oracleCompare(t, got, want)
		})
	}
}

// TestHammerAnalyticOracleMultiCore runs the same contract with two cores
// hammering concurrently: each core's region maps to its own bank, the
// streams interleave arbitrarily at the controller, yet each bank's table
// must still equal that core's closed form — per-core program order is
// all the oracle needs.
func TestHammerAnalyticOracleMultiCore(t *testing.T) {
	t.Parallel()
	cfg := hammerOracleCfg("HammerSingle")
	cfg.Cores = 2
	cfg.InstrPerCore = 6_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	am := oracleMapper(t, cfg)
	for core := 0; core < 2; core++ {
		region := workload.Region{Base: uint64(core) << 30, Bytes: 1 << 30}
		rank, bank, rowBase := workload.HammerTarget(core, region)
		// Confirm the generator's hardcoded mapping against the real
		// address mapper: region-relative row 0 of the target bank must
		// decompose to (channel 0, rank, bank, rowBase).
		loc := am.Decompose(region.Base + uint64(bank)<<14)
		if loc.Channel != 0 || loc.Rank != rank || loc.Bank != bank || loc.Row != rowBase {
			t.Fatalf("core %d: mapper places region row 0 at %+v, want ch0 rank%d bank%d row%d",
				core, loc, rank, bank, rowBase)
		}
		got := s.ctrl.RowCounts(0, rank, bank)
		var total int64
		for _, c := range got {
			total += c
		}
		if total == 0 {
			t.Fatalf("core %d: no activations in its bank", core)
		}
		want, err := workload.HammerCounts("HammerSingle", core, region, total)
		if err != nil {
			t.Fatal(err)
		}
		oracleCompare(t, got, want)
	}
}

// TestHammerMitigationEngages closes the loop on the defense itself: with
// the experiment's threshold armed, the targeted hammer patterns must
// raise alerts and draw RFMs, the row-uniform streams (GUPS, and RowStorm
// by design) must draw none, and every alert must charge exactly the
// configured back-off.
func TestHammerMitigationEngages(t *testing.T) {
	t.Parallel()
	run := func(name string) Result {
		cfg := DefaultConfig(name)
		cfg.Cores = 1
		cfg.InstrPerCore = 12_000
		cfg.WarmupPerCore = 0
		cfg.MitThreshold = hammerMitThreshold
		cfg.MitAlertCycles = 200
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range []string{"HammerSingle", "HammerDouble", "HammerDecoy"} {
		res := run(name)
		if res.Ctrl.Alerts == 0 {
			t.Errorf("%s: aggressive pattern raised no alerts at threshold %d",
				name, hammerMitThreshold)
		}
		// Every alert completes in exactly one RFM; at most the final one
		// may still be pending when the run ends.
		if res.Dev.RFMs != res.Ctrl.Alerts && res.Dev.RFMs != res.Ctrl.Alerts-1 {
			t.Errorf("%s: %d alerts but %d RFMs; every alert must complete in one RFM",
				name, res.Ctrl.Alerts, res.Dev.RFMs)
		}
		if want := res.Ctrl.Alerts * 200; res.Ctrl.AlertStallCycles != want {
			t.Errorf("%s: stall cycles %d, want alerts*back-off = %d",
				name, res.Ctrl.AlertStallCycles, want)
		}
	}
	for _, name := range []string{"GUPS", "RowStorm"} {
		if res := run(name); res.Ctrl.Alerts != 0 {
			t.Errorf("%s: row-uniform traffic raised %d alerts at threshold %d",
				name, res.Ctrl.Alerts, hammerMitThreshold)
		}
	}
}
