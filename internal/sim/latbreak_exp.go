package sim

import (
	"fmt"

	"pradram/internal/memctrl"
	"pradram/internal/stats"
)

// The latency-attribution experiment (DESIGN.md §4h): run every activation
// scheme over the benchmark set with per-request attribution enabled and
// tabulate where read latency is spent — the per-component shares and the
// tail percentiles. It doubles as an end-to-end audit of the conservation
// invariant: a row whose components do not sum exactly to the measured
// latency total fails the experiment rather than printing a wrong table.

// latBreakWorkloads are the experiment's rows: the eight single
// benchmarks. The multiprogrammed mixes add contention but no new
// attribution mechanism, so they stay out of the default table to keep the
// sweep at schemes x benchmarks.
var latBreakWorkloads = benchOrder

func latBreakKey(w string, s memctrl.Scheme) runKey {
	k := newKey(w, s, memctrl.RelaxedClose, 0)
	k.LatBreak = true
	return k
}

func keysLatBreak() []runKey {
	var keys []runKey
	for _, w := range latBreakWorkloads {
		for _, s := range memctrl.Schemes() {
			keys = append(keys, latBreakKey(w, s))
		}
	}
	return keys
}

// ExpLatBreak regenerates the latency-breakdown table: per scheme and
// workload, the mean and tail read latency in nanoseconds and each
// component's share of the total read latency.
func ExpLatBreak(rs runSet) (string, error) {
	cols := []string{"workload", "scheme", "avg ns", "p50 ns", "p99 ns"}
	for comp := memctrl.LatComponent(0); comp < memctrl.NumLatComponents; comp++ {
		cols = append(cols, comp.String()+"%")
	}
	t := stats.NewTable(cols...)
	for _, w := range latBreakWorkloads {
		for _, s := range memctrl.Schemes() {
			res := rs.get(latBreakKey(w, s))
			if got, want := res.Ctrl.ReadLatBreak.Sum(), res.Ctrl.ReadLatencySum; got != want {
				return "", fmt.Errorf("latbreak: %s/%s read breakdown sums to %d cycles, latency total is %d (conservation violated)",
					w, s, got, want)
			}
			if got, want := res.Ctrl.WriteLatBreak.Sum(), res.Ctrl.WriteLatencySum; got != want {
				return "", fmt.Errorf("latbreak: %s/%s write breakdown sums to %d cycles, latency total is %d (conservation violated)",
					w, s, got, want)
			}
			row := []any{w, s.String(),
				fmt.Sprintf("%.1f", res.AvgReadLatencyNs()),
				fmt.Sprintf("%.0f", res.ReadLatQuantileNs(0.50)),
				fmt.Sprintf("%.0f", res.ReadLatQuantileNs(0.99))}
			for comp := memctrl.LatComponent(0); comp < memctrl.NumLatComponents; comp++ {
				row = append(row, fmt.Sprintf("%.1f", 100*res.ReadLatShare(comp)))
			}
			t.Row(row...)
		}
	}
	return t.String() + "\nComponent shares partition the mean read latency (they sum to 100%);\n" +
		"percentiles are log-bucket upper bounds (power-of-two resolution).\n", nil
}
