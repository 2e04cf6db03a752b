package sim

import (
	"math"
	"testing"
)

// TestScoreboardVerdict: a band's edges hold, a value past either edge and
// a missing (NaN) value fail, and a row with no band is open whatever it
// measures.
func TestScoreboardVerdict(t *testing.T) {
	t.Parallel()
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		band *band
		v    float64
		want string
	}{
		{"inside", near(39, 15), 30, "holds"},
		{"low edge", near(39, 15), 24, "holds"},
		{"high edge", near(39, 15), 54, "holds"},
		{"below", near(39, 15), 23.99, "FAILS"},
		{"above", near(39, 15), 54.01, "FAILS"},
		{"between, edge", between(1.5, 5), 1.5, "holds"},
		{"at least, edge", atLeast(30), 30, "holds"},
		{"at least, +Inf", atLeast(30), inf, "holds"},
		{"at least, below", atLeast(30), 29.99, "FAILS"},
		{"at most, edge", atMost(6), 6, "holds"},
		{"at most, -Inf", atMost(6), -inf, "holds"},
		{"at most, above", atMost(6), 6.01, "FAILS"},
		{"positive, zero", positive(), 0, "FAILS"},
		{"positive, smallest float", positive(), math.SmallestNonzeroFloat64, "holds"},
		{"NaN, two-sided", near(39, 15), nan, "FAILS"},
		{"NaN, at least", atLeast(30), nan, "FAILS"},
		{"NaN, at most", atMost(6), nan, "FAILS"},
		{"NaN, a ratio of empty runs", atLeast(0.92), Result{}.SumIPC() / Result{}.SumIPC(), "FAILS"},
		{"no band", nil, 12, "open"},
		{"no band, NaN", nil, nan, "open"},
	} {
		if got := (target{band: c.band}).verdict(c.v); got != c.want {
			t.Errorf("%s: verdict(%v) = %s, want %s", c.name, c.v, got, c.want)
		}
	}
}

// TestScoreboardReadsNoNewRuns: every run the scoreboard reads is one some
// other experiment reads, so "-exp all" simulates nothing more for it.
func TestScoreboardReadsNoNewRuns(t *testing.T) {
	t.Parallel()
	others := make(map[string]bool)
	var board []runKey
	for _, e := range Experiments() {
		if e.ID == "scoreboard" {
			board = e.runs()
			continue
		}
		for _, k := range e.runs() {
			others[k.String()] = true
		}
	}
	if len(board) == 0 {
		t.Fatal("the scoreboard reads no run")
	}
	for _, k := range board {
		if !others[k.String()] {
			t.Errorf("the scoreboard reads %s, which no other experiment reads", k)
		}
	}
}
