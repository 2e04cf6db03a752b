package sim

import (
	"fmt"
	"strings"

	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// paperTable1 holds the published Table 1 values for side-by-side
// reporting and the calibration tests: row-buffer hit rates and traffic /
// activation shares, in percent.
var paperTable1 = map[string][6]float64{
	//            hitR hitW trafR trafW actR actW
	"bzip2":      {32, 1, 69, 31, 60, 40},
	"lbm":        {29, 18, 57, 43, 54, 46},
	"libquantum": {73, 48, 66, 34, 50, 50},
	"mcf":        {18, 1, 79, 21, 76, 24},
	"omnetpp":    {47, 2, 71, 29, 57, 43},
	"em3d":       {5, 1, 51, 49, 50, 50},
	"GUPS":       {3, 1, 53, 47, 52, 48},
	"LinkedList": {4, 1, 65, 35, 64, 36},
}

// ExpTable1 regenerates Table 1: per-benchmark memory characteristics
// under the baseline (single instance, as in the paper's motivation).
func ExpTable1(rs runSet) (string, error) {
	t := stats.NewTable("benchmark",
		"hitR% (paper)", "hitW% (paper)",
		"trafR% (paper)", "trafW% (paper)",
		"actR% (paper)", "actW% (paper)")
	for _, b := range benchOrder {
		res := rs.get(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		p := paperTable1[b]
		cell := func(v float64, ref float64) string {
			return fmt.Sprintf("%5.1f (%2.0f)", v, ref)
		}
		t.Row(b,
			cell(100*res.RowHitRateRead(), p[0]),
			cell(100*res.RowHitRateWrite(), p[1]),
			cell(100*res.ReadTrafficShare(), p[2]),
			cell(100*(1-res.ReadTrafficShare()), p[3]),
			cell(100*res.ReadActShare(), p[4]),
			cell(100*(1-res.ReadActShare()), p[5]))
	}
	return t.String(), nil
}

// ExpFig2 regenerates Figure 2: the baseline DRAM power breakdown
// (single-core, as the paper's motivational setup).
func ExpFig2(rs runSet) (string, error) {
	t := stats.NewTable("benchmark", "ACT-PRE%", "RD%", "WR%", "I/O%", "BG%", "REF%", "total mW")
	var actSum, ioSum float64
	for _, b := range benchOrder {
		res := rs.get(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		e := res.Energy
		tot := e.Total()
		io := e.IO()
		t.Row(b,
			100*e.Share(power.CompActPre),
			100*e.Share(power.CompRd),
			100*e.Share(power.CompWr),
			100*stats.Ratio(io, tot),
			100*e.Share(power.CompBG),
			100*e.Share(power.CompRef),
			res.AvgPowerMW())
		actSum += e.Share(power.CompActPre)
		ioSum += stats.Ratio(io, tot)
	}
	n := float64(len(benchOrder))
	return t.String() + fmt.Sprintf("\nACT-PRE average %.0f%% (paper: ~25%%, up to 33%%); I/O average %.0f%% (paper: ~14%%, up to 19%%)\n",
		100*actSum/n, 100*ioSum/n), nil
}

// ExpFig3 regenerates Figure 3: the distribution of dirty words per cache
// line at LLC eviction.
func ExpFig3(rs runSet) (string, error) {
	t := stats.NewTable("benchmark", "1w%", "2w%", "3w%", "4w%", "5w%", "6w%", "7w%", "8w%", "mean")
	for _, b := range benchOrder {
		res := rs.get(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		h := res.Cache.DirtyWords
		row := []any{b}
		for w := 1; w <= 8; w++ {
			row = append(row, 100*h.Share(w))
		}
		row = append(row, h.Mean())
		t.Row(row...)
	}
	return t.String() + "\nPaper shape: pointer/update codes (GUPS, LinkedList, mcf, em3d) cluster at 1 word;\nstreaming writers (libquantum, lbm) dirty most of the line.\n", nil
}

// ExpFig10 regenerates Figure 10: row-buffer hit rates under PRA with
// false-hit accounting, against the baseline.
func ExpFig10(rs runSet) (string, error) {
	t := stats.NewTable("workload", "base R%", "pra R%", "base W%", "pra W%", "base tot%", "pra tot%", "falseR%", "falseW%")
	var fr, fw float64
	var n int
	for _, w := range workloadOrder() {
		base := rs.get(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		pra := rs.get(newKey(w, memctrl.PRA, memctrl.RelaxedClose, 4))
		t.Row(w,
			100*base.RowHitRateRead(), 100*pra.RowHitRateRead(),
			100*base.RowHitRateWrite(), 100*pra.RowHitRateWrite(),
			100*base.RowHitRateTotal(), 100*pra.RowHitRateTotal(),
			100*pra.FalseHitRateRead(), 100*pra.FalseHitRateWrite())
		fr += pra.FalseHitRateRead()
		fw += pra.FalseHitRateWrite()
		n++
	}
	return t.String() + fmt.Sprintf("\nAverage false hit rate: reads %.2f%% (paper avg 0.04%%, max 0.26%%), writes %.2f%%\n",
		100*fr/float64(n), 100*fw/float64(n)), nil
}

// ExpFig11 regenerates Figure 11: activation-granularity proportions under
// PRA for both close-page policies.
func ExpFig11(rs runSet) (string, error) {
	var b strings.Builder
	for _, pol := range []memctrl.Policy{memctrl.RestrictedClose, memctrl.RelaxedClose} {
		fmt.Fprintf(&b, "-- %v --\n", pol)
		t := stats.NewTable("workload", "1/8%", "2/8%", "3/8%", "4/8%", "5/8%", "6/8%", "7/8%", "full%")
		sums := make([]float64, 9)
		var n int
		for _, w := range workloadOrder() {
			res := rs.get(newKey(w, memctrl.PRA, pol, 4))
			row := []any{w}
			for g := 1; g <= 8; g++ {
				v := 100 * res.GranularityShare(g)
				row = append(row, v)
				sums[g] += v
			}
			n++
			t.Row(row...)
		}
		row := []any{"average"}
		for g := 1; g <= 8; g++ {
			row = append(row, sums[g]/float64(n))
		}
		t.Row(row...)
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString("Paper averages (relaxed): 39, 2, 0.43, 0.45, 0.05, 0.05, 0.02, 58\n")
	b.WriteString("Paper averages (restricted): 36, 2.3, 0.4, 1.2, 0.04, 0.04, 0.02, 60\n")
	return b.String(), nil
}

// schemeComparison reads one row of the Figure 12/13 matrix: a workload
// under baseline, FGA, Half-DRAM, and PRA with the relaxed close-page policy.
func schemeComparison(rs runSet, w string) (base, fga, half, pra Result) {
	at := func(s memctrl.Scheme) Result { return rs.get(newKey(w, s, memctrl.RelaxedClose, 4)) }
	return at(memctrl.Baseline), at(memctrl.FGA), at(memctrl.HalfDRAM), at(memctrl.PRA)
}

// ExpFig12 regenerates Figure 12: normalized activation, I/O, and total
// DRAM power for FGA, Half-DRAM, and PRA.
func ExpFig12(rs runSet) (string, error) {
	var b strings.Builder
	type row struct{ act, io, tot [3]float64 } // fga, half, pra
	var avg row
	t := stats.NewTable("workload",
		"ACT fga", "ACT half", "ACT pra",
		"I/O fga", "I/O half", "I/O pra",
		"TOT fga", "TOT half", "TOT pra")
	var n int
	for _, w := range workloadOrder() {
		base, fga, half, pra := schemeComparison(rs, w)
		norm := func(res Result, f func(Result) float64) float64 {
			return stats.Ratio(f(res), f(base))
		}
		actOf := func(res Result) float64 { return res.Energy[power.CompActPre] / res.RuntimeNs() }
		ioOf := func(res Result) float64 { return res.Energy.IO() / res.RuntimeNs() }
		totOf := func(res Result) float64 { return res.AvgPowerMW() }
		vals := row{
			act: [3]float64{norm(fga, actOf), norm(half, actOf), norm(pra, actOf)},
			io:  [3]float64{norm(fga, ioOf), norm(half, ioOf), norm(pra, ioOf)},
			tot: [3]float64{norm(fga, totOf), norm(half, totOf), norm(pra, totOf)},
		}
		t.Row(w, vals.act[0], vals.act[1], vals.act[2],
			vals.io[0], vals.io[1], vals.io[2],
			vals.tot[0], vals.tot[1], vals.tot[2])
		for i := 0; i < 3; i++ {
			avg.act[i] += vals.act[i]
			avg.io[i] += vals.io[i]
			avg.tot[i] += vals.tot[i]
		}
		n++
	}
	fn := float64(n)
	t.Row("average", avg.act[0]/fn, avg.act[1]/fn, avg.act[2]/fn,
		avg.io[0]/fn, avg.io[1]/fn, avg.io[2]/fn,
		avg.tot[0]/fn, avg.tot[1]/fn, avg.tot[2]/fn)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nPaper: PRA ACT power -34%% avg (-43%% max); PRA I/O power -45%% avg (-58%% max);\n")
	fmt.Fprintf(&b, "PRA total power -23%% avg (-32%% max); FGA total -15%%; Half-DRAM total -11%%.\n")
	return b.String(), nil
}

// ExpFig13 regenerates Figure 13: normalized performance (weighted
// speedup), DRAM energy, and EDP for FGA, Half-DRAM, and PRA.
func ExpFig13(rs runSet) (string, error) {
	t := stats.NewTable("workload",
		"perf fga", "perf half", "perf pra",
		"energy fga", "energy half", "energy pra",
		"edp fga", "edp half", "edp pra")
	var sums [9]float64
	var n int
	for _, w := range workloadOrder() {
		base, fga, half, pra := schemeComparison(rs, w)
		perf := func(res Result) float64 { return rs.normalizedWS(w, res, base, memctrl.RelaxedClose) }
		energy := func(res Result) float64 { return stats.Ratio(res.TotalEnergyPJ(), base.TotalEnergyPJ()) }
		edp := func(res Result) float64 { return stats.Ratio(res.EDP(), base.EDP()) }
		vals := [9]float64{
			perf(fga), perf(half), perf(pra),
			energy(fga), energy(half), energy(pra),
			edp(fga), edp(half), edp(pra),
		}
		row := []any{w}
		for i, v := range vals {
			row = append(row, v)
			sums[i] += v
		}
		t.Row(row...)
		n++
	}
	row := []any{"average"}
	for _, s := range sums {
		row = append(row, s/float64(n))
	}
	t.Row(row...)
	return t.String() + "\nPaper: PRA perf -0.8% avg (-4.8% max); Half-DRAM +0.3%; FGA -14% avg (-18% max);\nPRA energy -23% avg (-34% max); PRA EDP -22% avg (-32% max).\n", nil
}

// ExpFig14 regenerates Figure 14: Half-DRAM, PRA, and the combined scheme
// under the restricted close-page policy (14-workload averages).
func ExpFig14(rs runSet) (string, error) {
	schemes := []memctrl.Scheme{memctrl.HalfDRAM, memctrl.PRA, memctrl.HalfDRAMPRA}
	sums := make(map[memctrl.Scheme][4]float64)
	var n int
	for _, w := range workloadOrder() {
		base := rs.get(newKey(w, memctrl.Baseline, memctrl.RestrictedClose, 4))
		for _, s := range schemes {
			res := rs.get(newKey(w, s, memctrl.RestrictedClose, 4))
			perf := rs.normalizedWS(w, res, base, memctrl.RestrictedClose)
			v := sums[s]
			v[0] += stats.Ratio(res.AvgPowerMW(), base.AvgPowerMW())
			v[1] += perf
			v[2] += stats.Ratio(res.TotalEnergyPJ(), base.TotalEnergyPJ())
			v[3] += stats.Ratio(res.EDP(), base.EDP())
			sums[s] = v
		}
		n++
	}
	t := stats.NewTable("scheme", "power", "performance", "energy", "EDP")
	for _, s := range schemes {
		v := sums[s]
		fn := float64(n)
		t.Row(s.String(), v[0]/fn, v[1]/fn, v[2]/fn, v[3]/fn)
	}
	return t.String() + "\nAll values normalized to the restricted-close baseline, averaged over 14 workloads.\nPaper: the combined scheme beats both components on power/energy/EDP and both\nbenefit from relaxed tRRD/tFAW under the restricted policy.\n", nil
}

// ExpFig15 regenerates Figure 15: DBI, PRA, and DBI+PRA for the paper's
// representative benchmarks plus the 14-workload mean.
func ExpFig15(rs runSet) (string, error) {
	type variant struct {
		name   string
		scheme memctrl.Scheme
		dbi    bool
	}
	variants := []variant{
		{"dbi", memctrl.Baseline, true},
		{"pra", memctrl.PRA, false},
		{"dbi+pra", memctrl.PRA, true},
	}
	picks := []string{"bzip2", "GUPS", "em3d"}
	t := stats.NewTable("workload", "variant", "power", "performance", "energy", "EDP")
	sums := make(map[string][4]float64)
	var n int
	for _, w := range workloadOrder() {
		base := rs.get(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		show := false
		for _, p := range picks {
			if p == w {
				show = true
			}
		}
		for _, v := range variants {
			k := newKey(w, v.scheme, memctrl.RelaxedClose, 4)
			k.dbi = v.dbi
			res := rs.get(k)
			perf := rs.normalizedWS(w, res, base, memctrl.RelaxedClose)
			vals := [4]float64{
				stats.Ratio(res.AvgPowerMW(), base.AvgPowerMW()),
				perf,
				stats.Ratio(res.TotalEnergyPJ(), base.TotalEnergyPJ()),
				stats.Ratio(res.EDP(), base.EDP()),
			}
			if show {
				t.Row(w, v.name, vals[0], vals[1], vals[2], vals[3])
			}
			s := sums[v.name]
			for i := range vals {
				s[i] += vals[i]
			}
			sums[v.name] = s
		}
		n++
	}
	for _, v := range variants {
		s := sums[v.name]
		fn := float64(n)
		t.Row("MEAN", v.name, s[0]/fn, s[1]/fn, s[2]/fn, s[3]/fn)
	}
	return t.String() + "\nPaper: DBI helps performance, PRA helps power; combined sits between\n(extra false hits from DBI's write bursts cost PRA some of its saving).\n", nil
}

// ablationWorkloads is the representative spread the ablation study runs
// (a random-access writer, a streaming writer, and a mix).
var ablationWorkloads = []string{"GUPS", "lbm", "MIX2"}

// ablationVariants are the study's rows: the full published scheme, then
// PRA with one design element disabled at a time.
var ablationVariants = []struct {
	name  string
	knobs memctrl.Knobs
}{
	{"pra", memctrl.Knobs{Scheme: memctrl.PRA}},
	{"pra-no-partial-io", memctrl.Knobs{Scheme: memctrl.PRA, NoPartialIO: true}},
	{"pra-no-timing-relax", memctrl.Knobs{Scheme: memctrl.PRA, NoTimingRelax: true}},
	{"pra-free-mask-cycle", memctrl.Knobs{Scheme: memctrl.PRA, NoMaskCycle: true}},
}

// ExpAblation quantifies the contribution of each PRA design element by
// disabling one at a time: the dirty-word-only I/O transfer (NoPartialIO),
// the weighted tRRD/tFAW relaxation (NoTimingRelax), and the extra
// mask-transfer cycle (NoMaskCycle — removing a *cost*, so it can only
// help). Values are normalized to the conventional baseline; "pra" is the
// full published scheme.
func ExpAblation(rs runSet) (string, error) {
	t := stats.NewTable("workload", "variant", "power", "energy", "perf (sumIPC)")
	for _, w := range ablationWorkloads {
		base := rs.get(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		for _, v := range ablationVariants {
			res := rs.get(runKey{workload: w, Knobs: v.knobs, active: 4})
			t.Row(w, v.name,
				stats.Ratio(res.AvgPowerMW(), base.AvgPowerMW()),
				stats.Ratio(res.TotalEnergyPJ(), base.TotalEnergyPJ()),
				stats.Ratio(res.SumIPC(), base.SumIPC()))
		}
	}
	return t.String() + "\nThe I/O ablation shows how much saving comes from transferring only dirty\nwords; the timing ablation isolates the relaxed tRRD/tFAW; the mask-cycle\nablation bounds the cost of delivering the PRA mask over the address bus.\n", nil
}

// ExpSec3Coverage regenerates the Section 3 comparison. Both metrics are
// averaged over ALL memory accesses, as the paper's 42%-vs-16% framing
// implies: PRA's average row-activation granularity comes from the PRA
// run's device histogram (reads stay full row, writes open only dirty MAT
// groups); SDS's average chip-access granularity keeps every read at 8
// chips and scales writes by the chip mask of the dirty bytes — one dirty
// word touches all eight byte positions, so SDS saves far less.
func ExpSec3Coverage(rs runSet) (string, error) {
	t := stats.NewTable("benchmark",
		"PRA act-gran reduction %", "SDS chip-access reduction %",
		"PRA power (norm)", "SDS power (norm)")
	var pSum, sSum, ppSum, spSum float64
	var n int
	for _, b := range benchOrder {
		base := rs.get(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		pra := rs.get(newKey(b, memctrl.PRA, memctrl.RelaxedClose, 1))
		sds := rs.get(newKey(b, memctrl.SDS, memctrl.RelaxedClose, 1))
		praRed := 100 * (1 - pra.Dev.AvgGranularity()/8)
		sdsRed := 100 * (1 - sds.Dev.AvgGranularity()/8)
		praPow := stats.Ratio(pra.AvgPowerMW(), base.AvgPowerMW())
		sdsPow := stats.Ratio(sds.AvgPowerMW(), base.AvgPowerMW())
		t.Row(b, praRed, sdsRed, praPow, sdsPow)
		pSum += praRed
		sSum += sdsRed
		ppSum += praPow
		spSum += sdsPow
		n++
	}
	fn := float64(n)
	t.Row("average", pSum/fn, sSum/fn, ppSum/fn, spSum/fn)
	return t.String() + "\nPaper: PRA reduces average activation granularity by 42%; SDS reduces\naverage chip-access granularity by only 16%. The power columns run the\nfull SDS scheme (an extension beyond the paper's qualitative comparison).\n", nil
}
