package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("division by zero must yield 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) != 0.75")
	}
}

func TestHistBasics(t *testing.T) {
	h := NewHist(8)
	for i := 0; i < 4; i++ {
		h.Add(1)
	}
	h.Add(8)
	h.Add(100) // clamps to 8
	h.Add(-3)  // clamps to 0
	if h.N != 7 {
		t.Errorf("N = %d, want 7", h.N)
	}
	if h.Buckets[8] != 2 || h.Buckets[0] != 1 {
		t.Error("clamping failed")
	}
	if got := h.Share(1); got != 4.0/7 {
		t.Errorf("Share(1) = %v", got)
	}
	if h.Share(-1) != 0 || h.Share(99) != 0 {
		t.Error("out-of-range share must be 0")
	}
	want := (4.0*1 + 2*8 + 0) / 7
	if got := h.Mean(); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

// TestHistOverflowCounters pins that edge clamping is observable: a
// saturated top bucket must be distinguishable from legitimately-maximal
// observations.
func TestHistOverflowCounters(t *testing.T) {
	h := NewHist(8)
	h.Add(8)   // legitimate top bucket, no overflow
	h.Add(9)   // clamped
	h.Add(100) // clamped
	h.Add(-1)  // clamped low
	if h.Overflow != 2 {
		t.Errorf("Overflow = %d, want 2", h.Overflow)
	}
	if h.Underflow != 1 {
		t.Errorf("Underflow = %d, want 1", h.Underflow)
	}
	if h.Buckets[8] != 3 || h.Buckets[0] != 1 || h.N != 4 {
		t.Errorf("buckets perturbed: %+v", h)
	}
}

func TestHistSharesSumToOne(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHist(8)
		for _, v := range vals {
			h.Add(int(v % 12))
		}
		if len(vals) == 0 {
			return true
		}
		var sum float64
		for i := range h.Buckets {
			sum += h.Share(i)
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLogHistBuckets pins the log2 bucket edges: 0 is its own bucket, and
// each power of two opens a new one.
func TestLogHistBuckets(t *testing.T) {
	var h LogHist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, -1} {
		h.Add(v)
	}
	if h.N != 8 || h.Underflow != 1 {
		t.Fatalf("N=%d Underflow=%d, want 8/1", h.N, h.Underflow)
	}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1} // -1 clamps into bucket 0
	for i, c := range h.Buckets {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

// TestLogHistQuantile pins the upper-edge estimate at bucket boundaries:
// values 4..7 share bucket 3, whose representative is 7.
func TestLogHistQuantile(t *testing.T) {
	var h LogHist
	for i := 0; i < 9; i++ {
		h.Add(1) // bucket 1, exact
	}
	h.Add(5) // bucket 3 -> reported as 7
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.9); got != 1 {
		t.Errorf("p90 = %v, want 1 (cum reaches 9/10 in bucket 1)", got)
	}
	if got := h.Quantile(0.99); got != 7 {
		t.Errorf("p99 = %v, want 7 (upper edge of bucket 3)", got)
	}
	if got := (&LogHist{}).Quantile(0.99); got != 0 {
		t.Errorf("empty LogHist quantile = %v, want 0", got)
	}

	var zeros LogHist
	zeros.Add(0)
	if got := zeros.Quantile(1); got != 0 {
		t.Errorf("all-zero quantile = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.5)
	tb.Row("b", 42)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") || !strings.Contains(out, "42") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4 (header, rule, 2 rows)", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("rule width %d != header width %d", len(lines[1]), len(lines[0]))
	}
}
