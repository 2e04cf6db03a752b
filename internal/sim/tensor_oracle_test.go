package sim

import (
	"sort"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/workload"
)

// The analytic-oracle tests for the tensor/conv streaming generators
// (DESIGN.md §4j). Where the hammer oracle pins per-row activation counts
// that are independent of the paging policy, the tensor oracle pins the
// *policy-dependent* count: under OpenPage, a same-row run of length L
// costs exactly ceil(L/MaxRowHits) activations, so the loop permutation's
// row locality shows up as a closed-form activation total
// (workload.TensorEpochActs) and a per-(bank, row) breakdown
// (workload.TensorCounts). These tests run the full stack and demand
// exact agreement — a cache absorbing a supposedly-compulsory miss, a
// reordered dependent load, a mis-mapped bank bit, or an open-page
// accounting bug all surface as a count mismatch.

func tensorOracleCfg(name string) Config {
	cfg := DefaultConfig(name)
	cfg.Cores = 1
	cfg.InstrPerCore = 12_000
	cfg.WarmupPerCore = 0
	cfg.Policy = memctrl.OpenPage // the policy whose ACT count the closed form models
	t := dram.DefaultTiming()
	t.TREFI = 1 << 30 // no refresh before the run ends: counters never reset
	cfg.Timing = &t
	cfg.MitThreshold = 1 << 30 // counting armed, threshold unreachable
	return cfg
}

// scanTensorCounters sweeps every bank of the system, asserts all
// activity is confined to the core's three tensor banks on (channel 0,
// rank 0), and returns the merged per-(bank, row) table plus the total.
func scanTensorCounters(t *testing.T, s *System, banks [3]int) (map[workload.TensorRow]int64, int64) {
	t.Helper()
	ctrl := s.ctrl
	g := dram.DefaultGeometry()
	bankSet := map[int]bool{banks[0]: true, banks[1]: true, banks[2]: true}
	got := map[workload.TensorRow]int64{}
	var total int64
	for ch := 0; ch < hammerOracleChannels; ch++ {
		for r := 0; r < g.Ranks; r++ {
			for b := 0; b < g.Banks; b++ {
				counts := ctrl.RowCounts(ch, r, b)
				if ch == 0 && r == 0 && bankSet[b] {
					for row, c := range counts {
						got[workload.TensorRow{Bank: b, Row: row}] = c
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

// TestTensorAnalyticOracle is the end-to-end acceptance check: for every
// loop permutation, simulated ACT counts equal the analytic walk exactly,
// per bank and per row.
func TestTensorAnalyticOracle(t *testing.T) {
	t.Parallel()
	cap := memctrl.DefaultConfig().MaxRowHits
	totals := map[string]int64{}
	epochTotals := map[string]int64{}
	for _, name := range workload.TensorNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := tensorOracleCfg(name)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			region := workload.Region{Base: 0, Bytes: 1 << 30}
			_, banks, rowBase := workload.TensorTarget(0, region)
			// Confirm the generator's hardcoded mapping against the real
			// address mapper: region-relative row 0 of each tensor bank
			// must decompose to (channel 0, rank 0, bank, rowBase).
			am := oracleMapper(t, cfg)
			for _, bank := range banks {
				loc := am.Decompose(region.Base + uint64(bank)<<14)
				if loc.Channel != 0 || loc.Rank != 0 || loc.Bank != bank || loc.Row != rowBase {
					t.Fatalf("mapper places region row 0 at %+v, want ch0 rank0 bank%d row%d",
						loc, bank, rowBase)
				}
			}
			got, total := scanTensorCounters(t, s, banks)
			epochActs, _, err := workload.TensorEpochActs(name, cap)
			if err != nil {
				t.Fatal(err)
			}
			if total < epochActs {
				t.Fatalf("only %d activations reached DRAM (one epoch is %d); the oracle is vacuous",
					total, epochActs)
			}
			want, err := workload.TensorCounts(name, 0, region, cap, total)
			if err != nil {
				t.Fatal(err)
			}
			keys := map[workload.TensorRow]bool{}
			for k := range got {
				keys[k] = true
			}
			for k := range want {
				keys[k] = true
			}
			sorted := make([]workload.TensorRow, 0, len(keys))
			for k := range keys {
				sorted = append(sorted, k)
			}
			sort.Slice(sorted, func(i, j int) bool {
				if sorted[i].Bank != sorted[j].Bank {
					return sorted[i].Bank < sorted[j].Bank
				}
				return sorted[i].Row < sorted[j].Row
			})
			for _, k := range sorted {
				if got[k] != want[k] {
					t.Errorf("bank %d row %d: simulated count %d, analytic count %d",
						k.Bank, k.Row, got[k], want[k])
				}
			}
			totals[name] = total
			epochTotals[name] = epochActs
		})
	}
	// The acceptance criterion demands at least two permutations with
	// different row locality: the per-epoch closed forms must differ (and
	// they do more than pairwise — KCP/PKC/CPK all differ).
	t.Run("permutations-differ", func(t *testing.T) {
		if epochTotals["TensorKCP"] == epochTotals["TensorPKC"] ||
			epochTotals["TensorKCP"] == epochTotals["TensorCPK"] ||
			epochTotals["TensorPKC"] == epochTotals["TensorCPK"] {
			t.Errorf("per-epoch activation totals not pairwise distinct: %v", epochTotals)
		}
	})
}
