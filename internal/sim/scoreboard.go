package sim

import (
	"fmt"
	"math"
	"slices"

	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// The scoreboard states each of the paper's headline claims once: the
// published value, the band this reproduction is held to, and how the
// measured value is read from the runs the other experiments make.
// `praexp -exp scoreboard` prints it (EXPERIMENTS.md's summary is its
// output), and TestCalibrationScoreboard holds every banded row.

// band is the closed interval a measured value must lie in; an infinite
// edge makes it one-sided.
type band struct {
	lo, hi float64
	text   string // how the scoreboard prints it
}

func near(c, tol float64) *band { return &band{c - tol, c + tol, fmt.Sprintf("%g +- %g", c, tol)} }
func atLeast(lo float64) *band  { return &band{lo, math.Inf(1), fmt.Sprintf(">= %g", lo)} }
func atMost(hi float64) *band   { return &band{math.Inf(-1), hi, fmt.Sprintf("<= %g", hi)} }
func between(lo, hi float64) *band {
	return &band{lo, hi, fmt.Sprintf("%g..%g", lo, hi)}
}

// positive is "> 0": the smallest float above zero is its closed edge.
func positive() *band { return &band{math.Nextafter(0, 1), math.Inf(1), "> 0"} }

// target is one scoreboard row: a quantity of one paper artifact.
type target struct {
	artifact string  // the experiment that prints it (praexp -exp <artifact>)
	quantity string  // what is measured, over which workloads, in which unit
	paper    float64 // the published value; NaN where the paper states only a shape
	band     *band   // nil: open, held to no band yet (ROADMAP 1(b))
	dev      int     // the EXPERIMENTS.md "Known deviations" item, 0 for none
	measure  func(runSet) float64
}

// verdict judges a measured value: holds inside the band, edges included;
// FAILS outside it, and for NaN, which no comparison admits; open for a row
// with no band.
func (t target) verdict(v float64) string {
	switch {
	case t.band == nil:
		return "open"
	case t.band.lo <= v && v <= t.band.hi:
		return "holds"
	}
	return "FAILS"
}

// table1Tols are Table 1's bands in percentage points: read hit rate, read
// traffic share, read activation share. Hit rates emerge from the generator
// and controller together; traffic splits are structural and tighter.
var table1Tols = map[string][3]float64{
	"bzip2":      {8, 6, 8},
	"lbm":        {15, 6, 8},
	"libquantum": {8, 5, 20},
	"mcf":        {8, 5, 8},
	"omnetpp":    {8, 8, 10},
	"em3d":       {6, 5, 5},
	"GUPS":       {6, 5, 6},
	"LinkedList": {6, 5, 5},
}

// fig13Subset is the workload subset the banded Figure 13 rows average
// over, which bounds the calibration test's run count.
var fig13Subset = []string{"libquantum", "GUPS", "MIX1", "MIX2"}

// targets returns the scoreboard's rows in paper order.
func targets() []target {
	nan := math.NaN()
	single := func(b string) runKey { return newKey(b, memctrl.Baseline, memctrl.RelaxedClose, 1) }
	// share reads scale × f of benchmark b's single-core run, or NaN, which
	// FAILS, when the run has none of f's denominator (den is 0): stats.Ratio
	// makes 0/0 a 0, which a band such as "<= 6" holds.
	share := func(b string, scale float64, f func(Result) float64, den func(Result) int64) func(runSet) float64 {
		return func(rs runSet) float64 {
			if r := rs.get(single(b)); den(r) != 0 {
				return scale * f(r)
			}
			return nan
		}
	}
	reads := func(r Result) int64 { return r.Ctrl.ReadsServed }
	writes := func(r Result) int64 { return r.Ctrl.WritesServed }
	served := func(r Result) int64 { return r.Ctrl.ReadsServed + r.Ctrl.WritesServed }
	acts := func(r Result) int64 { return r.Ctrl.ActsForReads + r.Ctrl.ActsForWrites }
	evicted := func(r Result) int64 { return r.Cache.Writebacks } // one DirtyWords observation each
	dirty := func(b string, words int) func(runSet) float64 {
		return share(b, 100, func(r Result) float64 { return r.Cache.DirtyWords.Share(words) }, evicted)
	}
	var ts []target
	for _, b := range benchOrder {
		p, tol := paperTable1[b], table1Tols[b]
		hitW, hitWDev, hitRDev := atMost(6), 0, 0
		switch b {
		case "libquantum":
			hitW, hitWDev = atLeast(30), 3
		case "lbm":
			hitW, hitRDev = near(18, 12), 4
		}
		ts = append(ts,
			target{"table1", b + " read hit rate (%)", p[0], near(p[0], tol[0]), hitRDev, share(b, 100, Result.RowHitRateRead, reads)},
			target{"table1", b + " write hit rate (%)", p[1], hitW, hitWDev, share(b, 100, Result.RowHitRateWrite, writes)},
			target{"table1", b + " read traffic share (%)", p[2], near(p[2], tol[1]), 0, share(b, 100, Result.ReadTrafficShare, served)},
			target{"table1", b + " read activation share (%)", p[4], near(p[4], tol[2]), 0, share(b, 100, Result.ReadActShare, acts)})
	}

	fig2 := func(c int) func(runSet) float64 {
		return func(rs runSet) float64 { return means(fig2Breakdown(rs))[c] }
	}
	ts = append(ts,
		target{"fig2", "ACT-PRE share of power, 8-benchmark average (%)", 25, nil, 1, fig2(0)},
		target{"fig2", "I/O share of power, 8-benchmark average (%)", 14, nil, 1, fig2(3)})

	for _, b := range []string{"GUPS", "LinkedList", "mcf"} {
		ts = append(ts, target{"fig3", b + " evictions with 1 dirty word (%)", nan, atLeast(90), 0, dirty(b, 1)})
	}
	ts = append(ts,
		target{"fig3", "libquantum evictions with 8 dirty words (%)", nan, atLeast(90), 0, dirty("libquantum", 8)},
		target{"fig3", "lbm mean dirty words per eviction", nan, between(1.5, 5), 0,
			share("lbm", 1, func(r Result) float64 { return r.Cache.DirtyWords.Mean() }, evicted)},
		target{"fig9", "energy of a half-row (8 of 16 MATs) activation (% of full)", nan, nil, 0,
			func(runSet) float64 { return 100 * power.DefaultMATEnergy().Scale(8) }})

	ts = append(ts,
		target{"fig10", "PRA false read-hit rate, 14-workload average (%)", 0.04, nil, 0,
			func(rs runSet) float64 { return means(fig10HitRates(rs))[6] }},
		target{"fig10", "PRA false read-hit rate, worst of 14 workloads (%)", 0.26, atMost(2), 0,
			func(rs runSet) float64 { return slices.Max(column(fig10HitRates(rs), 6)) }})

	fig11 := func(c int) func(runSet) float64 {
		return func(rs runSet) float64 { return means(fig11Shares(rs, memctrl.RelaxedClose))[c] }
	}
	ts = append(ts,
		target{"fig11", "1/8-row activations, relaxed, 14-workload average (%)", paperFig11[0][0], near(paperFig11[0][0], 15), 0, fig11(0)},
		target{"fig11", "full-row activations, relaxed, 14-workload average (%)", paperFig11[0][7], near(paperFig11[0][7], 15), 0, fig11(7)})

	// Figure 12's reductions are 100 × (1 − normalized power); the largest
	// reduction is that of the smallest normalized power.
	avgCut := func(s memctrl.Scheme, c int) func(runSet) float64 {
		return func(rs runSet) float64 { return 100 * (1 - means(fig12Power(rs, s))[c]) }
	}
	maxCut := func(c int) func(runSet) float64 {
		return func(rs runSet) float64 { return 100 * (1 - slices.Min(column(fig12Power(rs, memctrl.PRA), c))) }
	}
	ts = append(ts,
		target{"fig12", "PRA ACT power reduction, 14-workload average (%)", 34, near(34, 12), 0, avgCut(memctrl.PRA, 0)},
		target{"fig12", "PRA I/O power reduction, 14-workload average (%)", 45, near(45, 15), 1, avgCut(memctrl.PRA, 1)},
		target{"fig12", "PRA total power reduction, 14-workload average (%)", 23, near(23, 10), 0, avgCut(memctrl.PRA, 2)},
		target{"fig12", "PRA ACT power reduction, largest of 14 workloads (%)", 43, nil, 0, maxCut(0)},
		target{"fig12", "PRA I/O power reduction, largest of 14 workloads (%)", 58, nil, 1, maxCut(1)},
		target{"fig12", "PRA total power reduction, largest of 14 workloads (%)", 32, nil, 0, maxCut(2)},
		target{"fig12", "FGA total power reduction, 14-workload average (%)", 15, nil, 2, avgCut(memctrl.FGA, 2)},
		target{"fig12", "Half-DRAM total power reduction, 14-workload average (%)", 11, nil, 0, avgCut(memctrl.HalfDRAM, 2)})

	// The banded Figure 13 rows compare sum-IPC over fig13Subset; the open
	// ones read the figure's own weighted speedup over all 14 workloads.
	subsetIPC := func(s memctrl.Scheme) func(runSet) float64 {
		return func(rs runSet) float64 {
			var sum float64
			for _, w := range fig13Subset {
				sum += rs.get(newKey(w, s, memctrl.RelaxedClose, 4)).SumIPC() /
					rs.get(newKey(w, memctrl.Baseline, memctrl.RelaxedClose, 4)).SumIPC()
			}
			return sum / float64(len(fig13Subset))
		}
	}
	fig13 := func(s memctrl.Scheme, c int) func(runSet) float64 {
		return func(rs runSet) float64 {
			return means(versusBase(rs, memctrl.RelaxedClose, schemeKey(s, memctrl.RelaxedClose)))[c]
		}
	}
	ts = append(ts,
		target{"fig13", "PRA sum-IPC vs baseline, libquantum/GUPS/MIX1/MIX2 average", nan, atLeast(0.92), 0, subsetIPC(memctrl.PRA)},
		target{"fig13", "FGA sum-IPC vs baseline, libquantum/GUPS/MIX1/MIX2 average", nan, atMost(0.95), 2, subsetIPC(memctrl.FGA)},
		target{"fig13", "PRA minus FGA of the two rows above", nan, positive(), 0,
			func(rs runSet) float64 { return subsetIPC(memctrl.PRA)(rs) - subsetIPC(memctrl.FGA)(rs) }},
		target{"fig13", "PRA performance (WS) vs baseline, 14-workload average", 0.992, nil, 0, fig13(memctrl.PRA, 1)},
		target{"fig13", "Half-DRAM performance (WS) vs baseline, 14-workload average", 1.003, nil, 0, fig13(memctrl.HalfDRAM, 1)},
		target{"fig13", "FGA performance (WS) vs baseline, 14-workload average", 0.86, nil, 2, fig13(memctrl.FGA, 1)},
		target{"fig13", "PRA DRAM energy vs baseline, 14-workload average", 0.77, nil, 0, fig13(memctrl.PRA, 2)},
		target{"fig13", "PRA EDP vs baseline, 14-workload average", 0.78, nil, 0, fig13(memctrl.PRA, 3)})

	for _, s := range fig14Schemes {
		ts = append(ts, target{"fig14", s.String() + " power vs baseline, restricted, 14-workload average", nan, nil, 0,
			func(rs runSet) float64 { return fig14Means(rs, s)[0] }})
	}

	fig15 := func(v fig15Variant, c int) func(runSet) float64 {
		return func(rs runSet) float64 { return means(versusBase(rs, memctrl.RelaxedClose, v.key))[c] }
	}
	dbi, pra, both := fig15Variants[0], fig15Variants[1], fig15Variants[2]
	ts = append(ts,
		target{"fig15", "DBI performance (WS) vs baseline, 14-workload mean", nan, nil, 0, fig15(dbi, 1)},
		target{"fig15", "PRA power vs baseline, 14-workload mean", nan, nil, 0, fig15(pra, 0)},
		target{"fig15", "DBI+PRA power vs baseline, 14-workload mean", nan, nil, 0, fig15(both, 0)},
		target{"fig15", "DBI+PRA performance (WS) vs baseline, 14-workload mean", nan, nil, 0, fig15(both, 1)})

	sec3 := func(c int) func(runSet) float64 {
		return func(rs runSet) float64 { return means(sec3Coverage(rs))[c] }
	}
	return append(ts,
		target{"sec3cov", "PRA activation-granularity reduction, 8-benchmark average (%)", 42, nil, 0, sec3(0)},
		target{"sec3cov", "SDS chip-access-granularity reduction, 8-benchmark average (%)", 16, nil, 0, sec3(1)})
}

// scoreRows prints the scoreboard rows of one artifact, or of every
// artifact for "": the paper's value, the measured one, the band and the
// verdict. The experiment tables print their artifact's rows as a footer.
func scoreRows(rs runSet, artifact string) string {
	t := stats.NewTable("artifact", "quantity", "paper", "measured", "band", "verdict")
	for _, tg := range targets() {
		if artifact != "" && tg.artifact != artifact {
			continue
		}
		v := tg.measure(rs)
		paper, bounds, verdict := "-", "-", tg.verdict(v)
		if !math.IsNaN(tg.paper) {
			paper = fmt.Sprintf("%.4g", tg.paper)
		}
		if tg.band != nil {
			bounds = tg.band.text
		}
		if tg.dev != 0 {
			verdict += fmt.Sprintf(" (dev. %d)", tg.dev)
		}
		t.Row(tg.artifact, tg.quantity, paper, fmt.Sprintf("%.4g", v), bounds, verdict)
	}
	return t.String()
}

// ExpScoreboard prints every scoreboard row. It reads only runs the other
// experiments read, so "-exp all" simulates nothing more for it.
func ExpScoreboard(rs runSet) (string, error) {
	return scoreRows(rs, "") + "\nA paper value of - is a shape the paper states without a number. Bands hold at\nthe EXPERIMENTS.md budget (TestCalibrationScoreboard); open rows have no band\nyet; dev. N is item N of EXPERIMENTS.md's known deviations.\n", nil
}
