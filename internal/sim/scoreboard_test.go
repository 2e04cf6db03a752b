package sim

import (
	"fmt"
	"math"
	"testing"

	"pradram/internal/memctrl"
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

// TestScoreboardEmptyShares: a single-core run that served no writes and
// evicted no dirty line reads NaN, and so FAILS, on every row whose share
// has no denominator, though stats.Ratio makes its write hit rate 0 %.
func TestScoreboardEmptyShares(t *testing.T) {
	t.Parallel()
	k := newKey("bzip2", memctrl.Baseline, memctrl.RelaxedClose, 1)
	readsOnly := Result{Ctrl: memctrl.Stats{ReadsServed: 100, RowHitRead: 30, ActsForReads: 70}}
	if got := readsOnly.RowHitRateWrite(); got != 0 {
		t.Fatalf("Result.RowHitRateWrite of a run with no writes = %v, want stats.Ratio's 0", got)
	}
	rs := runSet{exp: "scoreboard", res: map[string]Result{k.String(): readsOnly}}
	want := map[string]string{
		"bzip2 read hit rate (%)":         "30 holds",
		"bzip2 write hit rate (%)":        "NaN FAILS",
		"bzip2 read traffic share (%)":    "100 FAILS",
		"bzip2 read activation share (%)": "100 FAILS",
	}
	for _, tg := range targets() {
		if w, ok := want[tg.quantity]; ok {
			v := tg.measure(rs)
			if got := fmt.Sprintf("%v %s", v, tg.verdict(v)); got != w {
				t.Errorf("%s: %s, want %s", tg.quantity, got, w)
			}
			delete(want, tg.quantity)
		}
	}
	for q := range want {
		t.Errorf("no scoreboard row %q", q)
	}
	rs.res[newKey("lbm", memctrl.Baseline, memctrl.RelaxedClose, 1).String()] = Result{}
	for _, tg := range targets() {
		if tg.quantity == "lbm mean dirty words per eviction" {
			if v := tg.measure(rs); !math.IsNaN(v) {
				t.Errorf("%s of a run with no dirty eviction = %v, want NaN", tg.quantity, v)
			}
		}
	}
}
