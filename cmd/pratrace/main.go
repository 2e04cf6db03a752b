// Command pratrace records DRAM request traces from full-system runs and
// replays them under different schemes — the fast what-if path: a replay
// skips the CPU and cache layers entirely and re-schedules the identical
// request stream on a fresh memory controller.
//
// Usage:
//
//	pratrace -record gups.trace -workload GUPS -instr 200000
//	pratrace -record mix.trace -workload GUPS:2,LinkedList:2
//	pratrace -info gups.trace                     # header + chunk index, no decode
//	pratrace -replay gups.trace -scheme pra
//	pratrace -replay gups.trace -compare          # all schemes side by side
//
// Traces record in the chunked, seekable v2 format ("PRA2", DESIGN.md
// §4j), the only one. Replays stream records straight off the file — no
// trace is ever materialized in memory, so file size is bounded by disk,
// not RAM.
package main

import (
	"flag"
	"fmt"
	"os"

	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/sim"
	"pradram/internal/stats"
	"pradram/internal/trace"
)

// options is a parsed command line: the mode, and the one Config both
// modes read.
type options struct {
	// cfg is the recording configuration; a replay schedules under its
	// controller knobs (scheme, policy, power-down and refresh management).
	cfg                  sim.Config
	record, replay, info string
	compare              bool
	httpAddr             string
}

// parseArgs registers the flags on fs and parses args. Run flags bind
// straight to Config fields through sim's flag table; the defaults below
// are this binary's.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	o := options{cfg: sim.DefaultConfig("GUPS")}
	o.cfg.InstrPerCore = 200_000
	o.cfg.WarmupPerCore = 300_000
	o.cfg.PDTimeout = 200
	sim.BindFlags(fs, &o.cfg, "workload", "scheme", "policy", "instr", "warmup", "seed", "noskip",
		"pd-policy", "pd-timeout", "sr-timeout", "pd-slow", "apd", "refresh-mode")
	// Three of the shared flags mean something narrower here.
	fs.Lookup("workload").Usage = "workload to record (a name or a name[:count],... mix spec)"
	fs.Lookup("scheme").Usage = "scheme for -replay: " + memctrl.SchemeNames.List()
	fs.Lookup("policy").Usage = "policy for -replay: " + memctrl.PolicyNames.List()

	fs.StringVar(&o.record, "record", "", "record a trace from -workload into this file")
	fs.StringVar(&o.replay, "replay", "", "replay the trace in this file")
	fs.StringVar(&o.info, "info", "", "print the trace file's header and chunk index without decoding records")
	fs.BoolVar(&o.compare, "compare", false, "replay under every scheme")
	fs.StringVar(&o.httpAddr, "http", "", "serve pprof introspection on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	modes := 0
	for _, m := range []string{o.record, o.replay, o.info} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return o, fmt.Errorf("-record, -replay and -info are mutually exclusive")
	}
	return o, o.cfg.Validate()
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if o.httpAddr != "" {
		srv := obs.NewServer()
		srv.Publish("build", func() any { return sim.BuildInfo() })
		if err := srv.Start(o.httpAddr); err != nil {
			fatal(fmt.Errorf("-http: %w", err))
		}
	}

	switch {
	case o.record != "":
		err = doRecord(o.record, o.cfg)
	case o.info != "":
		err = doInfo(o.info)
	case o.replay != "":
		err = doReplay(o.replay, o.cfg, o.compare)
	default:
		fmt.Fprintln(os.Stderr, "pratrace: need -record FILE, -replay FILE, or -info FILE")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func doRecord(path string, cfg sim.Config) error {
	// -scheme and -policy select the replay; the recording is the baseline
	// system's request stream.
	cfg.Scheme, cfg.Policy = memctrl.Baseline, memctrl.RelaxedClose
	cfg.Capture = true
	sys, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	tr := sys.Trace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.SaveV2(f); err != nil {
		return err
	}
	writes := 0
	for _, r := range tr.Records {
		if r.Write {
			writes++
		}
	}
	fmt.Printf("recorded %d requests (%d reads, %d writes) from %s over %d cycles -> %s (v2)\n",
		tr.Len(), tr.Len()-writes, writes, cfg.Workload, res.Cycles, path)
	return f.Sync()
}

// doInfo prints a trace file's header and per-chunk stats. It reads only
// the footer index — constant work regardless of trace size.
func doInfo(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	tf, err := trace.OpenV2(f, st.Size())
	if err != nil {
		return err
	}
	info := tf.Info()
	fmt.Printf("%s: format v%d, %d bytes\n", path, info.Version, st.Size())
	fmt.Printf("  records: %d (%d reads, %d writes)\n", info.Records, info.Records-info.Writes, info.Writes)
	fmt.Printf("  cycles:  %d .. %d (span %d)\n", info.FirstAt, info.LastAt, info.LastAt-info.FirstAt)
	fmt.Printf("  chunks:  %d\n", len(info.Chunks))
	table := stats.NewTable("chunk", "offset", "bytes", "records", "writes", "first cycle", "span")
	for i, c := range info.Chunks {
		table.Row(i, c.Offset, c.Bytes, c.Count, c.Writes, c.FirstAt, c.LastAt-c.FirstAt)
	}
	fmt.Print(table.String())
	return nil
}

func doReplay(path string, cfg sim.Config, compare bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	st, err := f.Stat()
	if err != nil {
		return err
	}
	tf, err := trace.OpenV2(f, st.Size())
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d requests\n\n", path, tf.Info().Records)

	// Replays stream records straight off the file; each pass decodes from
	// the first chunk again, so -compare never holds the trace in memory
	// either.
	replayOne := func(scheme memctrl.Scheme) (trace.ReplayResult, error) {
		k := cfg.Knobs
		k.Scheme = scheme
		return trace.ReplayStream(tf.Stream(), memctrl.ConfigFor(k), trace.ReplayOpts{NoSkip: cfg.NoSkip})
	}

	table := stats.NewTable("scheme", "cycles", "power mW", "avg gran", "read ns", "vs baseline")
	addRow := func(name string, r trace.ReplayResult, base *trace.ReplayResult) {
		rel := ""
		if base != nil && base.AvgPowerMW() > 0 {
			rel = fmt.Sprintf("%.3f", r.AvgPowerMW()/base.AvgPowerMW())
		}
		table.Row(name, r.Cycles, r.AvgPowerMW(), fmt.Sprintf("%.2f/8", r.Dev.AvgGranularity()), r.AvgReadNs, rel)
	}

	if !compare {
		res, err := replayOne(cfg.Scheme)
		if err != nil {
			return err
		}
		addRow(cfg.Scheme.String(), res, nil)
		fmt.Print(table.String())
		return nil
	}
	var base *trace.ReplayResult
	for _, s := range memctrl.Schemes() {
		res, err := replayOne(s)
		if err != nil {
			return err
		}
		if base == nil {
			b := res
			base = &b
		}
		addRow(s.String(), res, base)
	}
	fmt.Print(table.String())
	fmt.Println("\nNote: replays are open-loop (arrival times fixed), so queueing delay is")
	fmt.Println("amplified relative to the closed-loop full-system simulation.")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pratrace:", err)
	os.Exit(1)
}
