// Command praexp regenerates the tables and figures of "Partial Row
// Activation for Low-Power DRAM System" (HPCA 2017) on the Go
// reproduction. Each experiment prints a plain-text table with the paper's
// published numbers alongside for comparison.
//
// Usage:
//
//	praexp -exp fig12              # one experiment
//	praexp -exp all                # everything, in paper order
//	praexp -list                   # enumerate experiment IDs
//	praexp -exp fig13 -instr 2000000 -warmup 1000000
//	praexp -exp all -j 8           # 8 simulations in flight
//	praexp -exp all -cache ~/.cache/pradram   # reuse results across runs
//	praexp -exp all -ckpt-dir ~/.cache/pradram-ckpt   # reuse warmups too
//	praexp -exp all -http :6060    # live progress JSON + pprof
//	praexp -exp tensor             # analytic vs measured tensor-stream ACT rates
//
// Beyond the paper's artifacts, extension experiments (DESIGN.md §4b-§4j)
// cover power-down/refresh sweeps, RowHammer mitigation overhead, latency
// attribution, and the tensor loop-permutation locality study; -list
// enumerates all of them.
//
// While a campaign runs, a progress line (runs done / in flight / ETA)
// refreshes on stderr about once a second (-q silences it); tables print
// to stdout only, so redirected output is unchanged.
//
// Simulation-backed experiments share a memoized run cache within one
// invocation, so "-exp all" pays for each (workload, scheme, policy)
// configuration once. Each experiment's configuration set is precomputed
// across a -j-sized worker pool before its table is formatted; the tables
// on stdout are byte-identical for every -j (timings go to stderr).
// With -cache, results also persist on disk keyed by configuration,
// budget, and model version, so repeated invocations skip simulation.
//
// Runs that still have to simulate reuse warmup checkpoints (DESIGN.md
// §4e): configurations sharing a warmup fingerprint warm once and restore
// the snapshot thereafter, with bit-identical results. -ckpt-dir persists
// the snapshots across invocations; -nockpt disables reuse entirely. The
// closing summary and the -http /vars/checkpoints endpoint report how many
// warmups were reused versus paid cold.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pradram/internal/obs"
	"pradram/internal/sim"
)

// options is a parsed command line: what to run, and the budget and caches
// the runner is built from.
type options struct {
	exp         string
	list, quiet bool
	httpAddr    string
	run         sim.ExpOptions // Progress is attached by main
}

// parseArgs registers the flags on fs, parses args and validates the
// runner's options.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.exp, "exp", "all", "experiment id (see -list) or 'all'")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.Int64Var(&o.run.Instr, "instr", 400_000, "measured instructions per core")
	fs.Int64Var(&o.run.Warmup, "warmup", 400_000, "warmup instructions per core")
	fs.Uint64Var(&o.run.Seed, "seed", 1, "workload seed")
	fs.IntVar(&o.run.Workers, "j", runtime.GOMAXPROCS(0), "max simulations in flight (worker pool size)")
	fs.StringVar(&o.run.CacheDir, "cache", "", "on-disk result cache directory (empty = disabled)")
	fs.BoolVar(&o.quiet, "q", false, "suppress the stderr progress line")
	fs.BoolVar(&o.run.NoSkip, "noskip", false, "disable event-driven cycle skipping (identical results, slower campaign)")
	fs.StringVar(&o.httpAddr, "http", "", "serve live campaign progress and pprof on this address (e.g. :6060)")
	fs.StringVar(&o.run.CkptDir, "ckpt-dir", "", "persist warmup checkpoints in this directory so later invocations restore instead of re-warming (empty = in-memory reuse only)")
	fs.BoolVar(&o.run.NoCheckpoint, "nockpt", false, "disable warmup checkpoint reuse (identical results, every run warms from scratch)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, o.run.Validate()
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "praexp:", err)
		os.Exit(1)
	}
	if o.list {
		for _, e := range sim.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// A full campaign is minutes of silence without feedback: the progress
	// tracker feeds a once-a-second stderr line (runs done / in flight /
	// ETA) and, with -http, a live JSON endpoint. Tables still go to
	// stdout only, so redirected output is unchanged.
	prog := obs.NewProgress()
	stopReporter := func() {}
	if !o.quiet {
		stopReporter = prog.Reporter(os.Stderr, time.Second, "praexp")
	}
	defer stopReporter()

	o.run.Progress = prog
	runner := sim.NewRunner(o.run)

	if o.httpAddr != "" {
		srv := obs.NewServer()
		srv.Publish("build", func() any { return sim.BuildInfo() })
		srv.Publish("progress", func() any { return prog.Snapshot() })
		srv.Publish("checkpoints", func() any {
			return map[string]int64{
				"hits":   runner.CheckpointHits(),
				"misses": runner.CheckpointMisses(),
			}
		})
		if err := srv.Start(o.httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, "praexp: -http:", err)
			os.Exit(1)
		}
	}

	run := func(e sim.Experiment) error {
		start := time.Now()
		out, err := runner.RunExperiment(e)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("== %s: %s ==\n%s\n", e.ID, e.Title, out)
		fmt.Fprintf(os.Stderr, "(%s: %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		return nil
	}

	start := time.Now()
	if o.exp == "all" {
		// Warm the memo for the whole campaign in one wave, so the pool
		// parallelizes across experiment boundaries too.
		if err := runner.PrecomputeExperiments(sim.Experiments()); err != nil {
			fmt.Fprintln(os.Stderr, "praexp:", err)
			os.Exit(1)
		}
		for _, e := range sim.Experiments() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, "praexp:", err)
				os.Exit(1)
			}
		}
	} else {
		e, err := sim.ExperimentByID(o.exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "praexp:", err)
			os.Exit(1)
		}
		if err := run(e); err != nil {
			fmt.Fprintln(os.Stderr, "praexp:", err)
			os.Exit(1)
		}
	}
	stopReporter()
	fmt.Fprintf(os.Stderr, "(total: %v, %d simulations run, %d disk-cache hits, %d warmups reused / %d cold, -j %d)\n",
		time.Since(start).Round(time.Millisecond), runner.Simulations(), runner.DiskHits(),
		runner.CheckpointHits(), runner.CheckpointMisses(), o.run.Workers)
}
