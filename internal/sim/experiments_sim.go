package sim

import (
	"fmt"
	"slices"
	"strings"

	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// paperTable1 holds the published Table 1 values for side-by-side
// reporting and the scoreboard: row-buffer hit rates and traffic /
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

// The per-workload helpers below return one row of values per workload (or
// benchmark), in presentation order. A formatter prints the rows and their
// means; the scoreboard reads the same means, so each average is computed
// in one place.

// means returns the column averages of rows, each column summed in row
// order: every "average" row and footer of the experiment tables.
func means(rows [][]float64) []float64 {
	var sums []float64
	for _, r := range rows {
		if sums == nil {
			sums = make([]float64, len(r))
		}
		for c, v := range r {
			sums[c] += v
		}
	}
	for c := range sums {
		sums[c] /= float64(len(rows))
	}
	return sums
}

// column returns column c of rows.
func column(rows [][]float64, c int) []float64 {
	col := make([]float64, len(rows))
	for i, r := range rows {
		col[i] = r[c]
	}
	return col
}

// addRow appends one row to t: the labels, then vals.
func addRow(t *stats.Table, vals []float64, labels ...any) {
	for _, v := range vals {
		labels = append(labels, v)
	}
	t.Row(labels...)
}

// schemeKey returns the four-core run of a workload under scheme s and
// policy pol.
func schemeKey(s memctrl.Scheme, pol memctrl.Policy) func(w string) runKey {
	return func(w string) runKey { return newKey(w, s, pol, 4) }
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

// fig2Breakdown returns each benchmark's baseline DRAM power breakdown
// (single-core, as the paper's motivational setup): the ACT-PRE, RD, WR,
// I/O, BG and REF shares in percent, then the average power in mW.
func fig2Breakdown(rs runSet) [][]float64 {
	var rows [][]float64
	for _, b := range benchOrder {
		res := rs.get(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		e := res.Energy
		rows = append(rows, []float64{
			100 * e.Share(power.CompActPre),
			100 * e.Share(power.CompRd),
			100 * e.Share(power.CompWr),
			100 * stats.Ratio(e.IO(), e.Total()),
			100 * e.Share(power.CompBG),
			100 * e.Share(power.CompRef),
			res.AvgPowerMW()})
	}
	return rows
}

// ExpFig2 regenerates Figure 2: the baseline DRAM power breakdown.
func ExpFig2(rs runSet) (string, error) {
	t := stats.NewTable("benchmark", "ACT-PRE%", "RD%", "WR%", "I/O%", "BG%", "REF%", "total mW")
	rows := fig2Breakdown(rs)
	for i, b := range benchOrder {
		addRow(t, rows[i], b)
	}
	return t.String() + "\n" + scoreRows(rs, "fig2"), nil
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

// fig10HitRates returns each workload's row-buffer hit rates under the
// baseline and PRA (read, write and total, baseline then PRA for each),
// then PRA's false read and write hit rates, all in percent.
func fig10HitRates(rs runSet) [][]float64 {
	var rows [][]float64
	for _, w := range workloadOrder() {
		base := rs.get(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		pra := rs.get(newKey(w, memctrl.PRA, memctrl.RelaxedClose, 4))
		rows = append(rows, []float64{
			100 * base.RowHitRateRead(), 100 * pra.RowHitRateRead(),
			100 * base.RowHitRateWrite(), 100 * pra.RowHitRateWrite(),
			100 * base.RowHitRateTotal(), 100 * pra.RowHitRateTotal(),
			100 * pra.FalseHitRateRead(), 100 * pra.FalseHitRateWrite()})
	}
	return rows
}

// ExpFig10 regenerates Figure 10: row-buffer hit rates under PRA with
// false-hit accounting, against the baseline.
func ExpFig10(rs runSet) (string, error) {
	t := stats.NewTable("workload", "base R%", "pra R%", "base W%", "pra W%", "base tot%", "pra tot%", "falseR%", "falseW%")
	rows := fig10HitRates(rs)
	for i, w := range workloadOrder() {
		addRow(t, rows[i], w)
	}
	avg := means(rows)
	return t.String() + fmt.Sprintf("\nAverage false hit rate: reads %.2f%%, writes %.2f%%\n\n", avg[6], avg[7]) + scoreRows(rs, "fig10"), nil
}

// fig11Shares returns each workload's share of activations opening 1/8,
// 2/8, … 8/8 of a row under PRA and policy pol, in percent.
func fig11Shares(rs runSet, pol memctrl.Policy) [][]float64 {
	var rows [][]float64
	for _, w := range workloadOrder() {
		res := rs.get(newKey(w, memctrl.PRA, pol, 4))
		row := make([]float64, 8)
		for g := 1; g <= 8; g++ {
			row[g-1] = 100 * res.GranularityShare(g)
		}
		rows = append(rows, row)
	}
	return rows
}

// ExpFig11 regenerates Figure 11: activation-granularity proportions under
// PRA for both close-page policies.
func ExpFig11(rs runSet) (string, error) {
	var b strings.Builder
	for _, pol := range []memctrl.Policy{memctrl.RestrictedClose, memctrl.RelaxedClose} {
		fmt.Fprintf(&b, "-- %v --\n", pol)
		t := stats.NewTable("workload", "1/8%", "2/8%", "3/8%", "4/8%", "5/8%", "6/8%", "7/8%", "full%")
		rows := fig11Shares(rs, pol)
		for i, w := range workloadOrder() {
			addRow(t, rows[i], w)
		}
		addRow(t, means(rows), "average")
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for i, pol := range []string{"relaxed", "restricted"} {
		fmt.Fprintf(&b, "Paper averages (%s): %s\n", pol, strings.ReplaceAll(strings.Trim(fmt.Sprint(paperFig11[i]), "[]"), " ", ", "))
	}
	return b.String(), nil
}

// paperFig11 holds the paper's Figure 11 averages, relaxed then restricted:
// the shares of activations opening 1/8, 2/8, … 8/8 of a row, in percent.
var paperFig11 = [2][8]float64{{39, 2, 0.43, 0.45, 0.05, 0.05, 0.02, 58}, {36, 2.3, 0.4, 1.2, 0.04, 0.04, 0.02, 60}}

// comparedSchemes are the schemes Figures 12 and 13 set against the
// baseline, in column order.
var comparedSchemes = []memctrl.Scheme{memctrl.FGA, memctrl.HalfDRAM, memctrl.PRA}

// sideBySide adds to t one row per workload, then the average row: for each
// metric in turn, every scheme's value of it. per holds, for each scheme,
// one per-workload helper's rows.
func sideBySide(t *stats.Table, per [][][]float64, metrics ...int) {
	row := func(label string, pick func([][]float64) []float64) {
		var vals []float64
		for _, m := range metrics {
			for _, p := range per {
				vals = append(vals, pick(p)[m])
			}
		}
		addRow(t, vals, label)
	}
	for i, w := range workloadOrder() {
		row(w, func(p [][]float64) []float64 { return p[i] })
	}
	row("average", means)
}

// fig12Power returns scheme s's activation, I/O and total DRAM power per
// workload, each normalized to the baseline's (relaxed close-page).
func fig12Power(rs runSet, s memctrl.Scheme) [][]float64 {
	var rows [][]float64
	for _, w := range workloadOrder() {
		base := rs.get(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4))
		res := rs.get(newKey(w, s, memctrl.RelaxedClose, 4))
		norm := func(f func(Result) float64) float64 { return stats.Ratio(f(res), f(base)) }
		rows = append(rows, []float64{
			norm(func(r Result) float64 { return r.Energy[power.CompActPre] / r.RuntimeNs() }),
			norm(func(r Result) float64 { return r.Energy.IO() / r.RuntimeNs() }),
			norm(Result.AvgPowerMW)})
	}
	return rows
}

// ExpFig12 regenerates Figure 12: normalized activation, I/O, and total
// DRAM power for FGA, Half-DRAM, and PRA.
func ExpFig12(rs runSet) (string, error) {
	t := stats.NewTable("workload",
		"ACT fga", "ACT half", "ACT pra",
		"I/O fga", "I/O half", "I/O pra",
		"TOT fga", "TOT half", "TOT pra")
	var per [][][]float64
	for _, s := range comparedSchemes {
		per = append(per, fig12Power(rs, s))
	}
	sideBySide(t, per, 0, 1, 2)
	return t.String() + "\n" + scoreRows(rs, "fig12"), nil
}

// versusBase returns, per workload, the run key(w) against the four-core
// baseline under pol: average power, performance (weighted speedup), DRAM
// energy and EDP, each normalized to the baseline's.
func versusBase(rs runSet, pol memctrl.Policy, key func(w string) runKey) [][]float64 {
	var rows [][]float64
	for _, w := range workloadOrder() {
		base := rs.get(newKey(w, memctrl.Baseline, pol, 4))
		res := rs.get(key(w))
		rows = append(rows, []float64{
			stats.Ratio(res.AvgPowerMW(), base.AvgPowerMW()),
			rs.normalizedWS(w, res, base, pol),
			stats.Ratio(res.TotalEnergyPJ(), base.TotalEnergyPJ()),
			stats.Ratio(res.EDP(), base.EDP())})
	}
	return rows
}

// ExpFig13 regenerates Figure 13: normalized performance (weighted
// speedup), DRAM energy, and EDP for FGA, Half-DRAM, and PRA.
func ExpFig13(rs runSet) (string, error) {
	t := stats.NewTable("workload",
		"perf fga", "perf half", "perf pra",
		"energy fga", "energy half", "energy pra",
		"edp fga", "edp half", "edp pra")
	var per [][][]float64
	for _, s := range comparedSchemes {
		per = append(per, versusBase(rs, memctrl.RelaxedClose, schemeKey(s, memctrl.RelaxedClose)))
	}
	sideBySide(t, per, 1, 2, 3)
	return t.String() + "\n" + scoreRows(rs, "fig13"), nil
}

// fig14Schemes are Figure 14's rows: Half-DRAM, PRA, and the combination.
var fig14Schemes = []memctrl.Scheme{memctrl.HalfDRAM, memctrl.PRA, memctrl.HalfDRAMPRA}

// fig14Means returns scheme s's 14-workload averages of versusBase under
// the restricted close-page policy.
func fig14Means(rs runSet, s memctrl.Scheme) []float64 {
	return means(versusBase(rs, memctrl.RestrictedClose, schemeKey(s, memctrl.RestrictedClose)))
}

// ExpFig14 regenerates Figure 14: Half-DRAM, PRA, and the combined scheme
// under the restricted close-page policy (14-workload averages).
func ExpFig14(rs runSet) (string, error) {
	t := stats.NewTable("scheme", "power", "performance", "energy", "EDP")
	for _, s := range fig14Schemes {
		addRow(t, fig14Means(rs, s), s.String())
	}
	return t.String() + "\nAll values normalized to the restricted-close baseline, averaged over 14 workloads.\nPaper: the combined scheme beats both components on power/energy/EDP and both\nbenefit from relaxed tRRD/tFAW under the restricted policy.\n", nil
}

// fig15Variant is one of Figure 15's configurations.
type fig15Variant struct {
	name   string
	scheme memctrl.Scheme
	dbi    bool
}

// key returns v's four-core run of workload w (relaxed close-page).
func (v fig15Variant) key(w string) runKey {
	k := newKey(w, v.scheme, memctrl.RelaxedClose, 4)
	k.dbi = v.dbi
	return k
}

// fig15Variants are Figure 15's rows: DBI, PRA, and the combination.
var fig15Variants = []fig15Variant{
	{"dbi", memctrl.Baseline, true},
	{"pra", memctrl.PRA, false},
	{"dbi+pra", memctrl.PRA, true},
}

// ExpFig15 regenerates Figure 15: DBI, PRA, and DBI+PRA for the paper's
// representative benchmarks plus the 14-workload mean.
func ExpFig15(rs runSet) (string, error) {
	picks := []string{"bzip2", "GUPS", "em3d"}
	t := stats.NewTable("workload", "variant", "power", "performance", "energy", "EDP")
	var per [][][]float64
	for _, v := range fig15Variants {
		per = append(per, versusBase(rs, memctrl.RelaxedClose, v.key))
	}
	for i, w := range workloadOrder() {
		if slices.Contains(picks, w) {
			for j, v := range fig15Variants {
				addRow(t, per[j][i], w, v.name)
			}
		}
	}
	for j, v := range fig15Variants {
		addRow(t, means(per[j]), "MEAN", v.name)
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

// sec3Coverage returns, per benchmark (single core), PRA's reduction of the
// average row-activation granularity and SDS's of the average chip-access
// granularity, in percent, then PRA's and SDS's power normalized to the
// baseline's.
func sec3Coverage(rs runSet) [][]float64 {
	var rows [][]float64
	for _, b := range benchOrder {
		base := rs.get(newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1))
		pra := rs.get(newKey(b, memctrl.PRA, memctrl.RelaxedClose, 1))
		sds := rs.get(newKey(b, memctrl.SDS, memctrl.RelaxedClose, 1))
		rows = append(rows, []float64{
			100 * (1 - pra.Dev.AvgGranularity()/8),
			100 * (1 - sds.Dev.AvgGranularity()/8),
			stats.Ratio(pra.AvgPowerMW(), base.AvgPowerMW()),
			stats.Ratio(sds.AvgPowerMW(), base.AvgPowerMW())})
	}
	return rows
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
	rows := sec3Coverage(rs)
	for i, b := range benchOrder {
		addRow(t, rows[i], b)
	}
	addRow(t, means(rows), "average")
	return t.String() + "\nThe power columns run the full SDS scheme (an extension beyond the paper's\nqualitative comparison).\n\n" + scoreRows(rs, "sec3cov"), nil
}
