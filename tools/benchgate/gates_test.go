package main

import (
	"flag"
	"io"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestParseBench holds the one parser to canned `go test -bench` output:
// with and without the GOMAXPROCS suffix, repeated lines keeping the minimum
// per metric, and lines without the -benchmem columns.
func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: pradram/internal/trace
BenchmarkIngestDecodeV2-8     	  300000	        37.34 ns/op	       0 B/op	       0 allocs/op
BenchmarkIngestDecodeV2-8     	  300000	        33.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkIngestReplayStream-8 	  300000	      3850 ns/op	      12 B/op	       2 allocs/op
BenchmarkIngestReplayStream-8 	  300000	      3900 ns/op	       1 B/op	       0 allocs/op
BenchmarkSpeedMemBoundSkip    	       1	  24088969 ns/op
BenchmarkSpeedMemBoundSkip    	       1	  25000000 ns/op
BenchmarkWithBytes-2          	     100	       250.5 ns/op	 255.49 MB/s	      64 B/op	       3 allocs/op
PASS
ok  	pradram/internal/trace	3.1s
`
	got := parseBench(out)
	want := map[string]sample{
		"BenchmarkIngestDecodeV2":     {nsOp: 33.10, allocsOp: 0},
		"BenchmarkIngestReplayStream": {nsOp: 3850, allocsOp: 0},
		"BenchmarkSpeedMemBoundSkip":  {nsOp: 24088969},
		"BenchmarkWithBytes":          {nsOp: 250.5, allocsOp: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks %v, want %d", len(got), got, len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: metrics %v, want %v", name, g, w)
		}
		for metric, v := range w {
			if gv, ok := g[metric]; !ok || gv != v {
				t.Errorf("%s %s = %v (present %v), want %v", name, metric, gv, ok, v)
			}
		}
	}
}

// roundsFor builds three identical repetitions in which every other check of
// g passes comfortably and c's figure comes out as figure.
func roundsFor(g gate, c check, figure float64) []map[string]sample {
	rounds := make([]map[string]sample, 3)
	for i := range rounds {
		round := map[string]sample{}
		place := func(o check, figure float64) {
			for _, name := range []string{o.num, o.den} {
				if name != "" && round[name] == nil {
					round[name] = sample{nsOp: 1000, allocsOp: 0}
				}
			}
			if o.den != "" {
				figure *= round[o.den][o.metric]
			}
			round[o.num][o.metric] = figure
		}
		for _, o := range g.checks {
			place(o, map[string]float64{atMost: o.bound / 2, atLeast: o.bound * 2, info: 1}[o.dir])
		}
		place(c, figure)
		rounds[i] = round
	}
	return rounds
}

// TestEveryCheckCanFail is the harness's own gate: for every check in the
// table, measurements just inside the bound pass and just outside fail — the
// check and the whole report — and a benchmark the check names but the run
// did not produce is an error naming it (PR 11 found a gate that could not
// fail and a report never produced; both are this class).
func TestEveryCheckCanFail(t *testing.T) {
	for _, g := range gates {
		for _, c := range g.checks {
			verdict := func(figure float64) bool {
				rep, err := evaluate(g, roundsFor(g, c, figure))
				if err != nil {
					t.Fatalf("%s/%s: %v", g.name, c.name, err)
				}
				for _, cr := range rep.Checks {
					if cr.Name == c.name {
						if cr.Figure != figure {
							t.Fatalf("%s/%s: figure %v, want %v", g.name, c.name, cr.Figure, figure)
						}
						if rep.Pass != cr.Pass {
							t.Errorf("%s/%s: check pass %v but report pass %v", g.name, c.name, cr.Pass, rep.Pass)
						}
						return cr.Pass
					}
				}
				t.Fatalf("%s/%s: no row in the report", g.name, c.name)
				return false
			}
			// One part in 1024 either side of the bound; a zero bound (the
			// allocation ceiling) is stepped by one whole unit.
			below, above := c.bound*(1-1.0/1024), c.bound*(1+1.0/1024)
			if c.bound == 0 {
				below, above = 0, 1
			}
			switch c.dir {
			case atMost:
				if !verdict(below) || !verdict(c.bound) || verdict(above) {
					t.Errorf("%s/%s: ceiling %g does not separate %g from %g", g.name, c.name, c.bound, below, above)
				}
			case atLeast:
				if verdict(below) || !verdict(c.bound) || !verdict(above) {
					t.Errorf("%s/%s: floor %g does not separate %g from %g", g.name, c.name, c.bound, below, above)
				}
			case info:
				if !verdict(1e12) || !verdict(0) {
					t.Errorf("%s/%s: an info row must never fail", g.name, c.name)
				}
			default:
				t.Errorf("%s/%s: unknown direction %q", g.name, c.name, c.dir)
			}
			if c.why == "" {
				t.Errorf("%s/%s: no why sentence", g.name, c.name)
			}

			for _, name := range []string{c.num, c.den} {
				if name == "" {
					continue
				}
				rounds := roundsFor(g, c, c.bound)
				delete(rounds[2], name)
				if _, err := evaluate(g, rounds); err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("%s/%s: missing %s gave %v, want an error naming it", g.name, c.name, name, err)
				}
			}
		}
	}

	// The allocation check needs the -benchmem column: without it the run is
	// an error, not a pass at zero.
	g := gates[len(gates)-1]
	rounds := roundsFor(g, g.checks[1], 0)
	delete(rounds[0]["BenchmarkIngestReplayStream"], allocsOp)
	if _, err := evaluate(g, rounds); g.checks[1].metric != allocsOp || err == nil || !strings.Contains(err.Error(), allocsOp) {
		t.Errorf("missing allocs column: %v, want an error naming %s", err, allocsOp)
	}
}

// TestGatedFigureIsTheMedian pins the protocol's last step: one repetition
// inside a noise burst moves neither the gated figure nor the verdict, and
// the quoted ns/op are minima.
func TestGatedFigureIsTheMedian(t *testing.T) {
	g := gates[0]
	c := g.checks[0]
	rounds := roundsFor(g, c, 1.01)
	rounds[1][c.num][nsOp], rounds[1][c.den][nsOp] = 1300, 990 // 1.31x in this repetition only
	rep, err := evaluate(g, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if cr := rep.Checks[0]; cr.Figure != 1.01 || !cr.Pass || cr.NumeratorMin != 1010 || cr.DenominatorMin != 990 {
		t.Errorf("one noisy repetition of three: %+v, want figure 1.01, pass, minima 1010/990", cr)
	}
}

// TestBenchmarksResolve asks `go test -list` for every benchmark the table
// names: a renamed or deleted benchmark must fail here, not turn its gate
// into an error (or, before the shared evaluator, a silent pass) in CI. The
// gate's -bench pattern must select the name too.
func TestBenchmarksResolve(t *testing.T) {
	listed := map[string]string{}
	for _, g := range gates {
		if _, ok := listed[g.pkg]; !ok {
			cmd := exec.Command("go", "test", "-list", "^Benchmark", g.pkg)
			cmd.Dir = "../.." // the table's paths are relative to the repository root
			raw, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go test -list in %s: %v\n%s", g.pkg, err, raw)
			}
			listed[g.pkg] = "\n" + string(raw)
		}
		pattern, err := regexp.Compile(g.pattern)
		if err != nil {
			t.Fatalf("%s: pattern %q: %v", g.name, g.pattern, err)
		}
		for _, c := range g.checks {
			for _, name := range []string{c.num, c.den} {
				if name == "" {
					continue
				}
				if !strings.Contains(listed[g.pkg], "\n"+name+"\n") {
					t.Errorf("%s/%s: %s is not a benchmark of %s", g.name, c.name, name, g.pkg)
				}
				if !pattern.MatchString(name) {
					t.Errorf("%s/%s: -bench %q does not select %s", g.name, c.name, g.pattern, name)
				}
			}
		}
	}
}

// TestParseArgs pins the command line CI and the docs use: the default gate,
// one mode flag per further gate, -out derived from the gate, and the two
// rejections.
func TestParseArgs(t *testing.T) {
	parse := func(args ...string) (gate, int, string, error) {
		fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return parseArgs(fs, args)
	}
	if g, count, out, err := parse(); err != nil || g.name != "obs" || count != 5 || out != "BENCH_obs.json" {
		t.Errorf("no arguments: gate %s count %d out %s err %v", g.name, count, out, err)
	}
	for _, want := range gates[1:] {
		g, count, out, err := parse("-"+want.name, "-count", "3")
		if err != nil || g.name != want.name || count != 3 || out != "BENCH_"+want.name+".json" {
			t.Errorf("-%s -count 3: gate %s count %d out %s err %v", want.name, g.name, count, out, err)
		}
	}
	if _, _, out, err := parse("-lat", "-out", "x.json"); err != nil || out != "x.json" {
		t.Errorf("-out x.json: out %s err %v", out, err)
	}
	if _, _, _, err := parse("-speed", "-hammer"); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("two modes: %v, want a mutual-exclusion error", err)
	}
	for _, removed := range []string{"-power", "-update-power", "-golden=x"} {
		if _, _, _, err := parse(removed); err == nil {
			t.Errorf("%s is still accepted", removed)
		}
	}
	for _, n := range []string{"2", "1", "0", "-1"} {
		_, _, _, err := parse("-count", n)
		if err == nil || !strings.Contains(err.Error(), "min-of-1") || !strings.Contains(err.Error(), ".claude/skills/verify/SKILL.md") {
			t.Errorf("-count %s: %v, want a rejection citing the min-of-1 flake in .claude/skills/verify/SKILL.md", n, err)
		}
	}
}
