package main

import (
	"flag"

	"pradram"
)

// This file is the pinning shim: main() parses into loose variables and
// doRecord/doReplay assemble their configurations inline, where no test
// can see them, so parseArgs here is a verbatim copy of main's flag block
// with the recording Config assembled as doRecord does (plus the -scheme
// and -policy a replay resolves), against a caller-supplied FlagSet.
// flags_test.go pins the flag surface and the args->Config mapping against
// it; the refactor that gives the binary a real parseArgs deletes this file
// and must leave flags_test.go and testdata/flags.golden passing unedited.

type options struct {
	// cfg is the recording configuration; a replay schedules under its
	// controller knobs (scheme, policy, power-down and refresh management).
	cfg                  pradram.Config
	record, replay, info string
	compare              bool
	httpAddr             string
}

func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var (
		record       = fs.String("record", "", "record a trace from -workload into this file")
		replay       = fs.String("replay", "", "replay the trace in this file")
		info         = fs.String("info", "", "print the trace file's header and chunk index without decoding records")
		workloadName = fs.String("workload", "GUPS", "workload to record (a name or a name[:count],... mix spec)")
		schemeName   = fs.String("scheme", "baseline", "scheme for -replay")
		policyName   = fs.String("policy", "relaxed", "policy for -replay")
		compare      = fs.Bool("compare", false, "replay under every scheme")
		instr        = fs.Int64("instr", 200_000, "instructions per core to record")
		warmup       = fs.Int64("warmup", 300_000, "warmup instructions per core")
		seed         = fs.Uint64("seed", 1, "workload seed")
		noskip       = fs.Bool("noskip", false, "disable event-driven cycle skipping in both record and replay (identical results, slower runs)")
		httpAddr     = fs.String("http", "", "serve pprof introspection on this address (e.g. :6060)")

		pdPolicyName = fs.String("pd-policy", "immediate", "power-down entry policy: immediate | none | timeout | queue")
		pdTimeout    = fs.Int64("pd-timeout", 200, "idle memory cycles before power-down entry (timeout/queue policies)")
		srTimeout    = fs.Int64("sr-timeout", 0, "idle memory cycles before self-refresh entry (0 = never)")
		pdSlow       = fs.Bool("pd-slow", false, "use slow-exit (DLL-off) precharge power-down")
		apd          = fs.Bool("apd", false, "allow active power-down (CKE low with banks open)")
		refModeName  = fs.String("refresh-mode", "allbank", "refresh management: allbank | perbank | elastic")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{record: *record, replay: *replay, info: *info, compare: *compare, httpAddr: *httpAddr}

	pdPolicy, err := pradram.ParsePDPolicy(*pdPolicyName)
	if err != nil {
		return o, err
	}
	refMode, err := pradram.ParseRefreshMode(*refModeName)
	if err != nil {
		return o, err
	}
	scheme, err := pradram.ParseScheme(*schemeName)
	if err != nil {
		return o, err
	}
	policy, err := pradram.ParsePolicy(*policyName)
	if err != nil {
		return o, err
	}

	cfg := pradram.DefaultConfig(*workloadName)
	cfg.Scheme = scheme
	cfg.Policy = policy
	cfg.InstrPerCore = *instr
	cfg.WarmupPerCore = *warmup
	cfg.Seed = *seed
	cfg.NoSkip = *noskip
	cfg.PDPolicy = pdPolicy
	cfg.PDTimeout = *pdTimeout
	cfg.SRTimeout = *srTimeout
	cfg.PDSlowExit = *pdSlow
	cfg.APD = *apd
	cfg.RefreshMode = refMode
	o.cfg = cfg
	return o, nil
}
