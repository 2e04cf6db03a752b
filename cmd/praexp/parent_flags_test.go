package main

import (
	"flag"
	"runtime"

	"pradram/internal/sim"
)

// This file is the pinning shim: main() parses into loose variables and
// assembles its ExpOptions inline, where no test can see them, so parseArgs
// here is a verbatim copy of main's flag block and options literal, against
// a caller-supplied FlagSet. flags_test.go pins the flag surface and the
// args->ExpOptions mapping against it; the refactor that gives the binary a
// real parseArgs deletes this file and must leave flags_test.go and
// testdata/flags.golden passing unedited.

type options struct {
	exp         string
	list, quiet bool
	httpAddr    string
	run         sim.ExpOptions // Progress is attached by main
}

func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var (
		expID    = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		instr    = fs.Int64("instr", 400_000, "measured instructions per core")
		warmup   = fs.Int64("warmup", 400_000, "warmup instructions per core")
		seed     = fs.Uint64("seed", 1, "workload seed")
		workers  = fs.Int("j", runtime.GOMAXPROCS(0), "max simulations in flight (worker pool size)")
		cacheDir = fs.String("cache", "", "on-disk result cache directory (empty = disabled)")
		quiet    = fs.Bool("q", false, "suppress the stderr progress line")
		noskip   = fs.Bool("noskip", false, "disable event-driven cycle skipping (identical results, slower campaign)")
		httpAddr = fs.String("http", "", "serve live campaign progress and pprof on this address (e.g. :6060)")
		ckptDir  = fs.String("ckpt-dir", "", "persist warmup checkpoints in this directory so later invocations restore instead of re-warming (empty = in-memory reuse only)")
		nockpt   = fs.Bool("nockpt", false, "disable warmup checkpoint reuse (identical results, every run warms from scratch)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return options{
		exp: *expID, list: *list, quiet: *quiet, httpAddr: *httpAddr,
		run: sim.ExpOptions{
			Instr: *instr, Warmup: *warmup, Seed: *seed,
			Workers: *workers, CacheDir: *cacheDir,
			NoSkip:  *noskip,
			CkptDir: *ckptDir, NoCheckpoint: *nockpt,
		},
	}, nil
}
