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
// §4j); legacy v1 files still replay, identically. Replays stream records
// straight off the file — no trace is ever materialized in memory, so
// file size is bounded by disk, not RAM.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pradram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/sim"
	"pradram/internal/stats"
	"pradram/internal/trace"
)

func main() {
	var (
		record       = flag.String("record", "", "record a trace from -workload into this file")
		replay       = flag.String("replay", "", "replay the trace in this file")
		info         = flag.String("info", "", "print the trace file's header and chunk index without decoding records")
		workloadName = flag.String("workload", "GUPS", "workload to record (a name or a name[:count],... mix spec)")
		schemeName   = flag.String("scheme", "baseline", "scheme for -replay")
		policyName   = flag.String("policy", "relaxed", "policy for -replay")
		compare      = flag.Bool("compare", false, "replay under every scheme")
		instr        = flag.Int64("instr", 200_000, "instructions per core to record")
		warmup       = flag.Int64("warmup", 300_000, "warmup instructions per core")
		seed         = flag.Uint64("seed", 1, "workload seed")
		noskip       = flag.Bool("noskip", false, "disable event-driven cycle skipping in both record and replay (identical results, slower runs)")
		httpAddr     = flag.String("http", "", "serve pprof introspection on this address (e.g. :6060)")

		pdPolicyName = flag.String("pd-policy", "immediate", "power-down entry policy: immediate | none | timeout | queue")
		pdTimeout    = flag.Int64("pd-timeout", 200, "idle memory cycles before power-down entry (timeout/queue policies)")
		srTimeout    = flag.Int64("sr-timeout", 0, "idle memory cycles before self-refresh entry (0 = never)")
		pdSlow       = flag.Bool("pd-slow", false, "use slow-exit (DLL-off) precharge power-down")
		apd          = flag.Bool("apd", false, "allow active power-down (CKE low with banks open)")
		refModeName  = flag.String("refresh-mode", "allbank", "refresh management: allbank | perbank | elastic")
	)
	flag.Parse()

	pdPolicy, err := pradram.ParsePDPolicy(*pdPolicyName)
	if err != nil {
		fatal(err)
	}
	refMode, err := pradram.ParseRefreshMode(*refModeName)
	if err != nil {
		fatal(err)
	}
	// lowPower is the power-management configuration both the record and
	// replay paths apply — the recorded trace's timing and every replay's
	// scheduling honour the same FSMs.
	lowPower := lowPowerFlags{
		policy: pdPolicy, pdTimeout: *pdTimeout, srTimeout: *srTimeout,
		slowExit: *pdSlow, apd: *apd, refMode: refMode,
	}

	if *httpAddr != "" {
		srv := obs.NewServer()
		srv.Publish("build", func() any { return pradram.BuildInfo() })
		go func() {
			if err := srv.ListenAndServe(*httpAddr); err != nil {
				fmt.Fprintln(os.Stderr, "pratrace: http:", err)
			}
		}()
	}

	switch {
	case *record != "":
		if err := doRecord(*record, *workloadName, *instr, *warmup, *seed, *noskip, lowPower); err != nil {
			fatal(err)
		}
	case *info != "":
		if err := doInfo(*info); err != nil {
			fatal(err)
		}
	case *replay != "":
		if err := doReplay(*replay, *schemeName, *policyName, *compare, *noskip, lowPower); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "pratrace: need -record FILE, -replay FILE, or -info FILE")
		os.Exit(2)
	}
}

// lowPowerFlags carries the power-down and refresh-management flags to the
// record and replay paths.
type lowPowerFlags struct {
	policy               pradram.PDPolicy
	pdTimeout, srTimeout int64
	slowExit, apd        bool
	refMode              pradram.RefreshMode
}

func (l lowPowerFlags) applySim(cfg *pradram.Config) {
	cfg.PDPolicy = l.policy
	cfg.PDTimeout = l.pdTimeout
	cfg.SRTimeout = l.srTimeout
	cfg.PDSlowExit = l.slowExit
	cfg.APD = l.apd
	cfg.RefreshMode = l.refMode
}

func (l lowPowerFlags) applyCtrl(cfg *memctrl.Config) {
	cfg.PDPolicy = l.policy
	cfg.PDTimeout = l.pdTimeout
	cfg.SRTimeout = l.srTimeout
	cfg.PDSlowExit = l.slowExit
	cfg.APD = l.apd
	cfg.RefreshMode = l.refMode
}

func doRecord(path, workloadName string, instr, warmup int64, seed uint64, noskip bool, lp lowPowerFlags) error {
	cfg := pradram.DefaultConfig(workloadName)
	cfg.InstrPerCore = instr
	cfg.WarmupPerCore = warmup
	cfg.Seed = seed
	cfg.Capture = true
	cfg.NoSkip = noskip
	lp.applySim(&cfg)
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
	fmt.Printf("recorded %d requests (%d reads, %d writes) from %s over %d cycles -> %s (v2)\n",
		tr.Len(), res.Ctrl.ReadsServed, res.Ctrl.WritesServed, workloadName, res.Cycles, path)
	return f.Sync()
}

// doInfo prints a trace file's header and per-chunk stats. For v2 this
// reads only the footer index — constant work regardless of trace size;
// v1 files have no index, so their records are scanned (not materialized)
// for the same totals.
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
	info, err := trace.ReadInfo(f, st.Size())
	if err != nil {
		var scanErr error
		if info, scanErr = scanV1Info(f); scanErr != nil {
			return fmt.Errorf("%w (and not a readable v1 trace: %v)", err, scanErr)
		}
	}
	fmt.Printf("%s: format v%d, %d bytes\n", path, info.Version, st.Size())
	fmt.Printf("  records: %d (%d reads, %d writes)\n", info.Records, info.Records-info.Writes, info.Writes)
	fmt.Printf("  cycles:  %d .. %d (span %d)\n", info.FirstAt, info.LastAt, info.LastAt-info.FirstAt)
	if info.Version == 2 {
		fmt.Printf("  chunks:  %d\n", len(info.Chunks))
		table := stats.NewTable("chunk", "offset", "bytes", "records", "writes", "first cycle", "span")
		for i, c := range info.Chunks {
			table.Row(i, c.Offset, c.Bytes, c.Count, c.Writes, c.FirstAt, c.LastAt-c.FirstAt)
		}
		fmt.Print(table.String())
	}
	return nil
}

// scanV1Info decodes a v1 trace sequentially to produce the same summary
// the v2 footer stores.
func scanV1Info(f *os.File) (*trace.Info, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	s, err := trace.Open(f)
	if err != nil {
		return nil, err
	}
	info := &trace.Info{Version: 1}
	var rec trace.Record
	for s.Next(&rec) {
		if info.Records == 0 {
			info.FirstAt = rec.At
		}
		info.LastAt = rec.At
		info.Records++
		if rec.Write {
			info.Writes++
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return info, nil
}

func doReplay(path, schemeName, policyName string, compare, noskip bool, lp lowPowerFlags) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// Replays stream records straight off the file; each pass re-opens a
	// decoding stream at the start, so -compare never holds the trace in
	// memory either.
	openStream := func() (trace.Stream, error) {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return trace.Open(f)
	}
	s, err := openStream()
	if err != nil {
		return err
	}
	count := int64(-1)
	if sz, ok := s.(interface{ Remaining() int64 }); ok {
		count = sz.Remaining()
	} else if st, err := f.Stat(); err == nil {
		if info, err := trace.ReadInfo(f, st.Size()); err == nil {
			count = info.Records
		}
	}
	if count >= 0 {
		fmt.Printf("trace %s: %d requests\n\n", path, count)
	} else {
		fmt.Printf("trace %s\n\n", path)
	}

	replayOne := func(s memctrl.Scheme, p memctrl.Policy) (trace.ReplayResult, error) {
		cfg := memctrl.DefaultConfig()
		cfg.Scheme = s
		cfg.Policy = p
		if p == memctrl.RestrictedClose {
			cfg.Mapping = memctrl.LineInterleaved
		}
		lp.applyCtrl(&cfg)
		stream, err := openStream()
		if err != nil {
			return trace.ReplayResult{}, err
		}
		return trace.ReplayStream(stream, cfg, trace.ReplayOpts{NoSkip: noskip})
	}

	policy, err := pradram.ParsePolicy(policyName)
	if err != nil {
		return err
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
		scheme, err := pradram.ParseScheme(schemeName)
		if err != nil {
			return err
		}
		res, err := replayOne(scheme, policy)
		if err != nil {
			return err
		}
		addRow(scheme.String(), res, nil)
		fmt.Print(table.String())
		return nil
	}
	var base *trace.ReplayResult
	for _, s := range memctrl.Schemes() {
		res, err := replayOne(s, policy)
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
