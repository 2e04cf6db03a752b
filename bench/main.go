// Command bench is the repository's performance benchmark: six pinned
// scenarios timed end to end on the host, and a traced pass that charges
// host time to each module from outside, through the packages' exported
// functions. BENCHMARK.json at the repository root declares it; README.md
// in this directory says why each scenario and metric exists.
//
//	go run ./bench                                    every scenario, both passes
//	go run ./bench -workload core_resident -trace 0   one scenario, end-to-end only
//	go run ./bench -out a.json                        also write the full report
//	go run ./bench -compare a.json b.json             judge two reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pradram/internal/sim"
)

// declarationPath is where `go run ./bench` finds the bounds: it runs
// from the repository root.
const declarationPath = "BENCHMARK.json"

// tmpRoot holds the replay scenario's trace files, inside the checkout.
const tmpRoot = ".bench_tmp"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated scenarios to run (default: all)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds of timed reps per scenario")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
	quick := fs.Bool("quick", false, "budgets / 50 and one rep: a smoke run, not a measurement")
	out := fs.String("out", "", "write the full report (environment, raw rep times, every metric) to this file")
	compare := fs.Bool("compare", false, "compare two reports given as arguments against the bounds in "+declarationPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareReports(declarationPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace < -1 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -trace is 0, 1 or -1, and there are no positional arguments")
		return 2
	}

	var selected []scenario
	if *names == "" {
		selected = scenarios
	}
	for _, name := range strings.Split(*names, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		sc, ok := scenarioByName(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, sc)
	}

	// The sim and replay scenarios run on one goroutine; the campaign's
	// pool gets GOMAXPROCS workers. Two is what the development container
	// has, and pinning it keeps reports from larger hosts comparable.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.Remove(tmpRoot) // only if empty: every scenario removes its own files

	opt := options{
		params:   params{seed: *seed, quick: *quick, workers: procs, tmp: tmpRoot},
		seconds:  time.Duration(*seconds * float64(time.Second)),
		endToEnd: *trace != 1,
		layers:   *trace != 0,
	}
	rep := report{Env: environment(procs), Seed: *seed, Seconds: *seconds, Quick: *quick}
	failed := 0
	for _, sc := range selected {
		wr := runScenario(sc, opt)
		rep.Workloads = append(rep.Workloads, wr)
		failed += wr.Failed
		wr.print(stdout, opt)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// options say what one invocation measures.
type options struct {
	params
	seconds          time.Duration
	endToEnd, layers bool
}

// report is what -out writes and -compare reads: self-describing, so a
// row of a trajectory needs nothing beside it.
type report struct {
	Env       map[string]any   `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string    `json:"name"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Digest    string    `json:"digest"`
	SetupS    []float64 `json:"setup_s"`    // every set-up, in order
	RepWallS  []float64 `json:"rep_wall_s"` // every timed rep, in order
	Metrics   metrics   `json:"metrics"`
}

// environment describes the binary and the host it ran on.
func environment(procs int) map[string]any {
	env := sim.BuildInfo()
	env["go_version"] = runtime.Version()
	env["nproc"] = runtime.NumCPU()
	env["gomaxprocs"] = procs
	env["cpu_model"] = cpuModel()
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runScenario sets the scenario up, times its reps, and takes the
// per-layer pass. Every set-up, rep and extra run is one operation;
// whatever fails is counted and named, never dropped.
func runScenario(sc scenario, opt options) (wr workloadReport) {
	wr = workloadReport{Name: sc.name, Metrics: metrics{}}
	c := &checker{}
	defer func() { wr.Attempted, wr.Failed, wr.Failures = c.attempted, c.failed, c.failures }()

	// Set-up is repeated so that setup_s, like every host time here, is
	// the fastest of several: one set-up would report the host's mood.
	// Three at least, and up to ten while they fit in a second: most
	// set-ups take tens of milliseconds, where three are too few to find
	// a quiet one.
	minSetups, maxSetups, minReps := 3, 10, 3
	if !opt.endToEnd || opt.quick {
		minSetups, maxSetups = 1, 1
	}
	if opt.quick {
		minReps = 1
	}
	var r runner
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	var setup time.Duration
	for i, t0 := 0, time.Now(); i < minSetups || (i < maxSetups && time.Since(t0) < time.Second); i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		r, err = sc.prepare(opt.params)
		d := time.Since(t)
		if !c.op("set-up", err) {
			return wr
		}
		setup = best(setup, d)
		wr.SetupS = append(wr.SetupS, d.Seconds())
	}

	// Timed reps, closed loop: one at a time until the window is used. A
	// per-layer-only run spends a third of it here, for the baseline the
	// traced pass is compared with.
	window := opt.seconds
	if !opt.endToEnd {
		window /= 3
	}
	var fastest outcome
	start := time.Now()
	for len(wr.RepWallS) < minReps || (!opt.quick && time.Since(start)+fastest.wall <= window) {
		runtime.GC()
		out, err := r.rep()
		if err == nil && wr.Digest != "" && out.digest != wr.Digest {
			err = fmt.Errorf("digest %.12s differs from the first rep's %.12s", out.digest, wr.Digest)
		}
		if !c.op("rep", err) {
			return wr
		}
		wr.Digest = out.digest
		wr.RepWallS = append(wr.RepWallS, out.wall.Seconds())
		if len(wr.RepWallS) == 1 || out.wall < fastest.wall {
			fastest = out
		}
	}

	if opt.endToEnd {
		m := wr.Metrics
		m.set("setup_s", setup.Seconds())
		m.set("wall_s", fastest.wall.Seconds())
		m.set("sim_cycles_per_s", float64(fastest.cycles)/fastest.wall.Seconds())
	}
	if opt.layers {
		r.layers(wr.Metrics, c, fastest)
	}
	return wr
}

// print writes the scenario's metrics by name with their units, then the
// contract's result line: every declared metric of the passes that ran,
// a per-layer metric that does not apply to the scenario as 0.
func (wr workloadReport) print(w io.Writer, opt options) {
	fmt.Fprintf(w, "== %s  reps=%d  digest=%.16s\n", wr.Name, len(wr.RepWallS), wr.Digest)
	line := metrics{}
	emit := func(declared []metricDef, pad bool) {
		for _, d := range declared {
			v, ok := wr.Metrics[d.name]
			if ok {
				fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, v.Value, v.Unit)
			}
			if ok || pad {
				line[d.name] = value{Value: v.Value, Unit: d.unit}
			}
		}
	}
	if opt.endToEnd {
		emit(endToEnd, false)
	}
	if opt.layers {
		emit(perLayer, true)
	}
	for _, f := range wr.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	data, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, line})
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the benchmark
	}
	fmt.Fprintf(w, "%s\n", data)
}
