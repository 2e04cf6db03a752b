package main

import (
	"flag"
	"runtime"
	"strings"

	"pradram"
	"pradram/internal/obs"
)

// This file is the pinning shim: main() builds its Configs inline, where no
// test can see them, so parseArgs here is a verbatim copy of main's flag
// block and per-workload Config assembly, against a caller-supplied FlagSet.
// flags_test.go pins the flag surface and the args->Config mapping against
// it; the refactor that gives the binary a real parseArgs deletes this file
// and must leave flags_test.go and testdata/flags.golden passing unedited.

type options struct {
	cfgs         []pradram.Config // one per run, in report order
	list, asJSON bool
	workers      int

	ckptDir, traceOut, timeline, eventsOut, httpAddr string
}

func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var (
		workloadName = fs.String("workload", "GUPS", "benchmark or MIXn (comma-separated for a batch; see -list)")
		mixSpec      = fs.String("mix", "", "run one custom co-run spec name[:count],... (e.g. gups:2,linkedlist:2); counts must sum to -cores")
		schemeName   = fs.String("scheme", "baseline", "baseline | fga | halfdram | pra | halfdram+pra")
		policyName   = fs.String("policy", "relaxed", "relaxed | restricted")
		dbi          = fs.Bool("dbi", false, "enable Dirty-Block-Index proactive writeback")
		instr        = fs.Int64("instr", 400_000, "measured instructions per core")
		warmup       = fs.Int64("warmup", 400_000, "warmup instructions per core")
		cores        = fs.Int("cores", 4, "active cores")
		seed         = fs.Uint64("seed", 1, "workload seed")
		list         = fs.Bool("list", false, "list workloads and exit")
		asJSON       = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		ecc          = fs.Bool("ecc", false, "model an x72 ECC DIMM (Section 4.2)")
		workers      = fs.Int("j", runtime.GOMAXPROCS(0), "max simulations in flight for workload batches")
		noskip       = fs.Bool("noskip", false, "disable event-driven cycle skipping (tick every CPU cycle; results are identical, runs are slower)")
		channels     = fs.Int("channels", 0, "memory channels, power of two (0 = controller default; changes address decomposition, hence results)")
		ckptDir      = fs.String("ckpt-dir", "", "persist warmup checkpoints in this directory and restore matching ones instead of re-warming (results are identical)")

		pdPolicy  = fs.String("pd-policy", "immediate", "power-down entry policy: immediate | none | timeout | queue")
		pdTimeout = fs.Int64("pd-timeout", 200, "idle memory cycles before power-down entry (timeout/queue policies)")
		srTimeout = fs.Int64("sr-timeout", 0, "idle memory cycles before self-refresh entry (0 = never)")
		pdSlow    = fs.Bool("pd-slow", false, "use slow-exit (DLL-off) precharge power-down: lower IDD2P, tXPDLL exit")
		apd       = fs.Bool("apd", false, "allow active power-down (CKE low with banks open) under the relaxed-close policy")
		refMode   = fs.String("refresh-mode", "allbank", "refresh management: allbank | perbank | elastic")

		mitThreshold = fs.Int("mit-threshold", 0, "RowHammer Alert/RFM mitigation: per-row activation threshold (0 = off)")
		mitAlert     = fs.Int64("mit-alert", 0, "alert back-off in memory cycles before the RFM issues (0 = default 144)")
		mitTable     = fs.Int("mit-table", 0, "per-bank activation-counter table capacity (0 = default 512)")

		powerCal = fs.String("power-cal", "", "report calibrated energy bands: none | vendor | ghose[:pct] (empty = nominal only)")

		latBreak    = fs.Bool("latbreak", false, "attribute per-request latency to components (queue/bank/timing/refresh/pd/alert/xfer) and report the breakdown and tail percentiles (results are identical)")
		traceOut    = fs.String("trace-out", "", "write sampled request spans as a Chrome/Perfetto trace JSON to this file (implies -latbreak)")
		traceSample = fs.Int("trace-sample", 64, "with -trace-out, sample every Nth completed request into the span ring")

		epoch     = fs.Int64("epoch", 100_000, "telemetry sampling epoch in DRAM cycles (used with -timeline / -http)")
		timeline  = fs.String("timeline", "", "write the per-epoch time-series to this file (.json for JSON, else CSV)")
		eventsLvl = fs.String("events", "off", "structured event trace: off | state | cmd")
		eventsOut = fs.String("events-out", "", "write the event trace to this file (otherwise dumped to stderr only on error)")
		httpAddr  = fs.String("http", "", "serve live telemetry JSON and pprof on this address (e.g. :6060)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{
		list: *list, asJSON: *asJSON, workers: *workers,
		ckptDir: *ckptDir, traceOut: *traceOut, timeline: *timeline, eventsOut: *eventsOut, httpAddr: *httpAddr,
	}

	scheme, err := pradram.ParseScheme(*schemeName)
	if err != nil {
		return o, err
	}
	policy, err := pradram.ParsePolicy(*policyName)
	if err != nil {
		return o, err
	}
	pd, err := pradram.ParsePDPolicy(*pdPolicy)
	if err != nil {
		return o, err
	}
	rm, err := pradram.ParseRefreshMode(*refMode)
	if err != nil {
		return o, err
	}
	level, err := obs.ParseLevel(*eventsLvl)
	if err != nil {
		return o, err
	}
	obsCfg := pradram.ObsConfig{EventLevel: level}
	if *timeline != "" || *httpAddr != "" {
		obsCfg.EpochCycles = *epoch
	}

	names := strings.Split(*workloadName, ",")
	if *mixSpec != "" {
		names = []string{*mixSpec}
	}
	for _, name := range names {
		cfg := pradram.DefaultConfig(strings.TrimSpace(name))
		cfg.Scheme = scheme
		cfg.Policy = policy
		cfg.DBI = *dbi
		cfg.ECC = *ecc
		cfg.InstrPerCore = *instr
		cfg.WarmupPerCore = *warmup
		cfg.ActiveCores = *cores
		cfg.Seed = *seed
		cfg.NoSkip = *noskip
		cfg.Channels = *channels
		cfg.PDPolicy = pd
		cfg.PDTimeout = *pdTimeout
		cfg.SRTimeout = *srTimeout
		cfg.PDSlowExit = *pdSlow
		cfg.APD = *apd
		cfg.RefreshMode = rm
		cfg.MitThreshold = *mitThreshold
		cfg.MitAlertCycles = *mitAlert
		cfg.MitTableCap = *mitTable
		cfg.PowerCal = *powerCal
		cfg.Obs = obsCfg
		cfg.LatBreak = *latBreak || *traceOut != ""
		if *traceOut != "" {
			cfg.LatSpanEvery = *traceSample
		}
		o.cfgs = append(o.cfgs, cfg)
	}
	return o, nil
}
