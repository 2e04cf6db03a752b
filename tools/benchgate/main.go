// Command benchgate is CI's performance gate: one table of gates (gates.go,
// tabulated for readers in DESIGN.md §4k), one measurement protocol, one
// report schema.
//
// CI has no stored hardware-normalized ns/op to diff against, so nearly
// every invariant under guard is a ratio between two benchmarks run back to
// back on the same host, which cancels the machine out (the ingest gate's
// absolute format contracts are the exception, with bounds an order of
// magnitude from the measurement). A 5% ceiling still does not survive
// comparing two minima on a shared host: measured here, one gate run in ten
// saw every sample of one side inside a noise burst the other side's samples
// missed, and under `go test` one back-to-back pair in ten is off by more
// than 5% (run directly, the test binary's pairs stay within 3%). So the
// protocol, for every gate, is: build the package's test binary once; make
// each of the -count repetitions its own process that runs the gate's
// benchmarks back to back, best of three each, where host noise hits both
// sides of a pair alike; gate the median of the repetitions' figures. The
// ns/op and allocs/op a report quotes are minima over all repetitions —
// noise only inflates a timing, so the minimum is the best estimate of true
// cost — and serve the reader, not the verdict.
//
// Usage: go run ./tools/benchgate [-speed|-hammer|-lat|-ingest] [-count N] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// sample is one benchmark's measurements, keyed by metric (nsOp, allocsOp).
type sample map[string]float64

// checkReport is one check's row of a report.
type checkReport struct {
	Name           string  `json:"name"`
	Numerator      string  `json:"numerator"`
	Denominator    string  `json:"denominator,omitempty"`
	Metric         string  `json:"metric"`
	NumeratorMin   float64 `json:"numerator_min"`
	DenominatorMin float64 `json:"denominator_min,omitempty"`
	Figure         float64 `json:"figure"` // median over the repetitions of numerator[/denominator]
	Direction      string  `json:"direction"`
	Bound          float64 `json:"bound"`
	Pass           bool    `json:"pass"`
}

// report is the one schema every BENCH_<gate>.json follows.
type report struct {
	Gate   string        `json:"gate"`
	Count  int           `json:"count"`
	Checks []checkReport `json:"checks"`
	Pass   bool          `json:"pass"`
}

func main() {
	g, count, out, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(g, count, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// parseArgs registers the flags on fs — one mode flag per gate after the
// first — and returns the selected gate, the repetition count and the
// report path.
func parseArgs(fs *flag.FlagSet, args []string) (g gate, count int, out string, err error) {
	fs.IntVar(&count, "count", 5, "repetitions, each its own process (at least 3; the median is gated)")
	fs.StringVar(&out, "out", "", "where to write the report (default BENCH_<gate>.json)")
	picked := make([]bool, len(gates))
	for i := 1; i < len(gates); i++ {
		fs.BoolVar(&picked[i], gates[i].name, false, "run the "+gates[i].title+" gate instead of the "+gates[0].title+" gate")
	}
	if err = fs.Parse(args); err != nil {
		return
	}
	g = gates[0]
	modes := 0
	for i, p := range picked {
		if p {
			g = gates[i]
			modes++
		}
	}
	switch {
	case modes > 1:
		err = fmt.Errorf("the mode flags are mutually exclusive")
	case count < 3:
		err = fmt.Errorf("-count %d: a gate needs at least 3 repetitions (fewer gates a single noisy sample: the min-of-1 flake recorded in .claude/skills/verify/SKILL.md)", count)
	}
	if out == "" {
		out = "BENCH_" + g.name + ".json"
	}
	return
}

// run measures g, writes the report and prints the verdict; a failed check
// is an error carrying its why.
func run(g gate, count int, out string) error {
	rounds, err := measure(g, count)
	if err != nil {
		return err
	}
	rep, err := evaluate(g, rounds)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	failed := ""
	for i, c := range rep.Checks {
		pair, bound := c.Numerator, "(info)"
		if c.Denominator != "" {
			pair += " / " + c.Denominator
		}
		if c.Direction != info {
			bound = fmt.Sprintf("(%s %g) %s", c.Direction, c.Bound, map[bool]string{true: "ok", false: "FAIL"}[c.Pass])
		}
		fmt.Printf("benchgate %s: %-24s %10.4g  %s %s %s\n", g.name, c.Name, c.Figure, pair, c.Metric, bound)
		if !c.Pass {
			failed += fmt.Sprintf("\n  %s = %.4g (%s %g): %s", c.Name, c.Figure, c.Direction, c.Bound, g.checks[i].why)
		}
	}
	fmt.Printf("benchgate %s: %s (count %d, report %s)\n", g.name, map[bool]string{true: "PASS", false: "FAIL"}[rep.Pass], count, out)
	if failed != "" {
		return fmt.Errorf("the %s gate failed:%s", g.title, failed)
	}
	return nil
}

// measure builds g's test binary once and runs it count times, each
// repetition a process of its own, started in the package directory as `go
// test` would; it returns each repetition's best-of-three samples.
func measure(g gate, count int) ([]map[string]sample, error) {
	dir, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, g.name+".test")
	if raw, err := exec.Command("go", "test", "-c", "-o", bin, g.pkg).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the test binary of %s: %v\n%s", g.pkg, err, raw)
	}
	rounds := make([]map[string]sample, count)
	for i := range rounds {
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", g.pattern,
			"-test.benchtime", g.benchtime, "-test.benchmem", "-test.count", "3")
		cmd.Dir = g.pkg
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("benchmark run failed: %v\n%s", err, raw)
		}
		rounds[i] = parseBench(string(raw))
	}
	return rounds, nil
}

// benchLine matches a `go test -bench` result line, with or without the
// GOMAXPROCS suffix and the -benchmem columns:
// "BenchmarkX-8  300000  37.34 ns/op  0 B/op  0 allocs/op".
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\w+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9]+) allocs/op)?`)

// parseBench returns the minimum of every metric per benchmark in out.
func parseBench(out string) map[string]sample {
	res := map[string]sample{}
	for _, m := range benchLine.FindAllStringSubmatch(out, -1) {
		if res[m[1]] == nil {
			res[m[1]] = sample{}
		}
		for metric, text := range map[string]string{nsOp: m[2], allocsOp: m[3]} {
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				continue // the line carries no allocs column
			}
			if cur, ok := res[m[1]][metric]; !ok || v < cur {
				res[m[1]][metric] = v
			}
		}
	}
	return res
}

// evaluate applies g's checks to the repetitions' samples. A benchmark or
// metric a check names and a repetition lacks is an error, not a pass.
func evaluate(g gate, rounds []map[string]sample) (report, error) {
	rep := report{Gate: g.name, Count: len(rounds), Pass: true}
	for _, c := range g.checks {
		cr := checkReport{Name: c.name, Numerator: c.num, Denominator: c.den, Metric: c.metric, Direction: c.dir, Bound: c.bound}
		figures := make([]float64, len(rounds))
		for i, round := range rounds {
			lookup := func(name string, lowest *float64) (float64, error) {
				v, ok := round[name][c.metric]
				if !ok {
					return 0, fmt.Errorf("%s gate, repetition %d: no %s for benchmark %s (does -bench %q still select it in %s?)", g.name, i, c.metric, name, g.pattern, g.pkg)
				}
				if i == 0 || v < *lowest {
					*lowest = v
				}
				return v, nil
			}
			var err error
			if figures[i], err = lookup(c.num, &cr.NumeratorMin); err != nil {
				return rep, err
			}
			if c.den != "" {
				den, err := lookup(c.den, &cr.DenominatorMin)
				if err != nil {
					return rep, err
				}
				figures[i] /= den
			}
		}
		sort.Float64s(figures)
		cr.Figure = figures[len(figures)/2]
		cr.Pass = c.dir == info || c.dir == atMost && cr.Figure <= c.bound || c.dir == atLeast && cr.Figure >= c.bound
		rep.Pass = rep.Pass && cr.Pass
		rep.Checks = append(rep.Checks, cr)
	}
	return rep, nil
}
