// Package stats provides the small counting and formatting helpers shared
// by the simulator, the experiment harness, and the CLI tools: ratio-safe
// division, fixed-bucket histograms, and plain-text table rendering for the
// paper's tables and figures.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// Ratio returns num/den, or 0 when den is 0. Every hit-rate and share in
// the experiment reports goes through it so empty runs render as zeros
// rather than NaNs.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Hist is a fixed-bucket histogram of non-negative integer observations
// (e.g. dirty words per line: buckets 0..8).
type Hist struct {
	Buckets []int64
	N       int64
	// Overflow counts observations that exceeded the top bucket and were
	// clamped into it (Underflow is the negative-value equivalent). A
	// silent clamp would make a saturated top bucket indistinguishable
	// from a legitimate one in telemetry dumps; these counters keep the
	// saturation visible.
	Overflow  int64
	Underflow int64
}

// NewHist creates a histogram with buckets 0..max.
func NewHist(max int) *Hist { return &Hist{Buckets: make([]int64, max+1)} }

// Add records one observation; out-of-range values clamp to the edges and
// are tallied in Overflow/Underflow so the clamping is observable.
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
		h.Underflow++
	}
	if v >= len(h.Buckets) {
		v = len(h.Buckets) - 1
		h.Overflow++
	}
	h.Buckets[v]++
	h.N++
}

// Share returns bucket b's fraction of all observations; a nil Hist reads
// as empty.
func (h *Hist) Share(b int) float64 {
	if h == nil || b < 0 || b >= len(h.Buckets) {
		return 0
	}
	return Ratio(float64(h.Buckets[b]), float64(h.N))
}

// Mean returns the average observed value; a nil Hist reads as empty.
func (h *Hist) Mean() float64 {
	if h == nil {
		return 0
	}
	var sum int64
	for v, c := range h.Buckets {
		sum += int64(v) * c
	}
	return Ratio(float64(sum), float64(h.N))
}

// LogHist is a log2-bucketed histogram of non-negative int64 observations
// (latencies in cycles, sizes in bytes). Bucket 0 counts zeros; bucket i
// counts values in [2^(i-1), 2^i). The bucket array is a fixed-size value —
// no allocation on Add — so one can live inside a hot-path stats struct and
// be merged or snapshotted by plain assignment.
type LogHist struct {
	// N counts all observations; Underflow counts the negative ones, which
	// clamp into bucket 0 (same visibility rule as Hist).
	N         int64
	Underflow int64
	Buckets   [64]int64
}

// Add records one observation. Negative values clamp to bucket 0 and are
// tallied in Underflow.
func (h *LogHist) Add(v int64) {
	if v < 0 {
		v = 0
		h.Underflow++
	}
	h.Buckets[bits.Len64(uint64(v))]++
	h.N++
}

// Merge adds other's observations into h.
func (h *LogHist) Merge(other *LogHist) {
	for i, c := range other.Buckets {
		h.Buckets[i] += c
	}
	h.N += other.N
	h.Underflow += other.Underflow
}

// Quantile returns an upper-bound estimate of the q-th quantile: the
// inclusive upper edge (2^i - 1) of the smallest bucket whose cumulative
// count reaches the q-th fraction of all observations (q clamped to [0, 1];
// 0 with no observations). The log2 bucketing makes the estimate exact for
// zeros and ones and otherwise overestimates by strictly less than 2x.
func (h *LogHist) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.N)
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if float64(cum) >= target && cum > 0 {
			if i == 0 {
				return 0
			}
			return float64(uint64(1)<<uint(i) - 1)
		}
	}
	return float64(uint64(1)<<63 - 1)
}

// Table renders aligned plain-text tables for the experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; cells are formatted with %v, floats with 3 decimals.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
