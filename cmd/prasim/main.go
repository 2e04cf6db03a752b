// Command prasim runs workloads on one DRAM scheme and prints the
// measured statistics: performance, row-buffer behaviour, activation
// granularity, and the DRAM power/energy breakdown.
//
// Usage:
//
//	prasim -workload GUPS -scheme pra
//	prasim -workload MIX2 -scheme halfdram+pra -policy restricted
//	prasim -workload libquantum -scheme baseline -instr 2000000 -dbi
//	prasim -workload GUPS,em3d,MIX2 -j 3       # parallel fan-out
//	prasim -mix gups:2,linkedlist:2 -scheme pra  # custom SPEC-rate co-run
//
// -workload accepts a comma-separated list; the runs execute across a
// -j-sized worker pool and the reports print in the order given, so the
// output is identical for every -j (each run is deterministic and
// independent). With -json, one JSON document is emitted per workload.
// -mix runs one custom multi-program co-run instead: a name[:count],...
// spec over any single-core workloads (benchmarks, hammers, tensor
// streams) whose counts sum to -cores, with per-core attribution in the
// report.
//
// -ckpt-dir persists warmup checkpoints (DESIGN.md §4e): a later
// invocation whose configuration shares a warmup fingerprint restores the
// snapshot instead of re-warming, with bit-identical results.
//
// Telemetry (see internal/obs and DESIGN.md "Observability"):
//
//	prasim -workload gups -timeline tl.csv -epoch 50000
//	prasim -workload GUPS -events state -events-out ev.log
//	prasim -workload GUPS,em3d -j 2 -timeline tl.csv -http :6060
//
// -timeline samples per-epoch counters (per-bank ACT/PRE/RD/WR, activation
// granularity histogram, queue depths, energy components, ...) into a CSV
// (or JSON when the file ends in .json); in a batch the workload name is
// inserted before the extension. -events records a ring-buffered trace of
// state transitions (state) or every DRAM command (cmd), written to
// -events-out and dumped to stderr when a run fails. -http serves the live
// recorder, batch progress, the build/version block (/vars/build), and
// net/http/pprof while the runs execute.
//
// Latency attribution (DESIGN.md §4h):
//
//	prasim -workload GUPS -scheme pra -latbreak
//	prasim -workload GUPS -latbreak -json
//	prasim -workload GUPS -trace-out trace.json -events state
//
// -latbreak decomposes every request's arrival-to-data latency into
// queue/bank/timing/refresh/pd/alert/xfer components (a shares table and
// tail percentiles join the report; simulated results are identical).
// -trace-out additionally samples every -trace-sample-th completed request
// into a Chrome/Perfetto trace (open in ui.perfetto.dev), one track per
// bank, with the breakdown as span arguments; when -events is at least
// "state" the controller's refresh/power-down/alert instants ride along.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/power"
	"pradram/internal/sim"
	"pradram/internal/stats"
	"pradram/internal/workload"
)

// options is a parsed command line: one validated Config per run plus the
// settings that belong to the binary rather than to a run.
type options struct {
	cfgs         []sim.Config // one per run, in report order
	list, asJSON bool
	workers      int

	ckptDir, traceOut, timeline, eventsOut, httpAddr string
}

// parseArgs registers the flags on fs, parses args and expands them into
// the batch's Configs. Run flags bind straight to Config fields through
// sim's flag table; the defaults below are this binary's.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	cfg := sim.DefaultConfig("GUPS")
	cfg.InstrPerCore = 400_000
	cfg.WarmupPerCore = 400_000
	cfg.ActiveCores = 4
	cfg.PDTimeout = 200
	cfg.LatSpanEvery = 64         // -trace-sample; armed by -trace-out
	cfg.Obs.EpochCycles = 100_000 // -epoch; armed by -timeline / -http
	sim.BindFlags(fs, &cfg)

	var o options
	mixSpec := fs.String("mix", "", "run one custom co-run spec name[:count],... (e.g. gups:2,linkedlist:2); counts must sum to -cores")
	fs.BoolVar(&o.list, "list", false, "list workloads and exit")
	fs.BoolVar(&o.asJSON, "json", false, "emit machine-readable JSON instead of tables")
	fs.IntVar(&o.workers, "j", runtime.GOMAXPROCS(0), "max simulations in flight for workload batches")
	fs.StringVar(&o.ckptDir, "ckpt-dir", "", "persist warmup checkpoints in this directory and restore matching ones instead of re-warming (results are identical)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write sampled request spans as a Chrome/Perfetto trace JSON to this file (implies -latbreak)")
	fs.StringVar(&o.timeline, "timeline", "", "write the per-epoch time-series to this file (.json for JSON, else CSV)")
	fs.StringVar(&o.eventsOut, "events-out", "", "write the event trace to this file (otherwise dumped to stderr only on error)")
	fs.StringVar(&o.httpAddr, "http", "", "serve live telemetry JSON and pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil || o.list {
		return o, err
	}

	// The output flags arm what they export; unarmed, the sampling knobs
	// stay off. An output whose source cannot be armed is an error, not an
	// empty file.
	if o.traceOut != "" {
		cfg.LatBreak = true
		if cfg.LatSpanEvery == 0 {
			return o, fmt.Errorf("-trace-out needs a positive -trace-sample")
		}
	} else {
		cfg.LatSpanEvery = 0
	}
	if o.timeline == "" && o.httpAddr == "" {
		cfg.Obs.EpochCycles = 0
	} else if o.timeline != "" && cfg.Obs.EpochCycles == 0 {
		return o, fmt.Errorf("-timeline needs a positive -epoch")
	}
	if o.eventsOut != "" && cfg.Obs.EventLevel == obs.LevelOff {
		return o, fmt.Errorf("-events-out needs -events state or -events cmd")
	}
	if o.workers < 0 {
		return o, fmt.Errorf("-j must be non-negative, got %d", o.workers)
	}

	names := strings.Split(cfg.Workload, ",")
	if *mixSpec != "" {
		// A co-run spec contains commas itself, so it cannot ride the
		// comma-separated batch list; -mix submits the whole spec as one
		// multi-program run instead.
		names = []string{*mixSpec}
	}
	for _, name := range names {
		cfg.Workload = strings.TrimSpace(name)
		if err := cfg.Validate(); err != nil {
			return o, err
		}
		o.cfgs = append(o.cfgs, cfg)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if o.list {
		fmt.Println("benchmarks:", workload.Names())
		fmt.Println("hammers:   ", workload.HammerNames())
		fmt.Println("tensors:   ", workload.TensorNames())
		fmt.Println("mixes:     ", workload.MixNames())
		fmt.Println("co-runs:    any single-core names as name[:count],... via -mix")
		return
	}

	// -http binds before anything is built, so a bad address is an error up
	// front; variables are published once what they read exists.
	var srv *obs.Server
	if o.httpAddr != "" {
		srv = obs.NewServer()
		if err := srv.Start(o.httpAddr); err != nil {
			fatal(fmt.Errorf("-http: %w", err))
		}
		srv.Publish("build", func() any { return sim.BuildInfo() })
	}

	systems := make([]*sim.System, len(o.cfgs))
	for i, cfg := range o.cfgs {
		if systems[i], err = sim.New(cfg); err != nil {
			fatal(err)
		}
	}
	batch := len(systems) > 1

	prog := obs.NewProgress()
	stopReporter := func() {}
	if batch {
		stopReporter = prog.Reporter(os.Stderr, time.Second, "prasim")
	}
	if srv != nil {
		srv.Publish("progress", func() any { return prog.Snapshot() })
		for i := range systems {
			s, label := systems[i], o.cfgs[i].Workload
			if batch {
				label = fmt.Sprintf("%d-%s", i, label)
			}
			if rec := s.Recorder(); rec != nil {
				srv.Publish("timeline/"+label, func() any { return rec.Snapshot() })
			}
		}
	}

	// The runner fans the independent runs out across its pool and takes
	// each through the warmup-checkpoint layer (-ckpt-dir); reports still
	// print in the order the workloads were given.
	runner := sim.NewRunner(sim.ExpOptions{
		Workers: max(o.workers, 1), CkptDir: o.ckptDir, NoCheckpoint: o.ckptDir == "", Progress: prog})
	results, errs := runner.RunSystems(systems)
	stopReporter()
	if o.ckptDir != "" {
		fmt.Fprintf(os.Stderr, "(warmup checkpoints: %d restored, %d cold)\n",
			runner.CheckpointHits(), runner.CheckpointMisses())
	}

	for i, res := range results {
		if errs[i] != nil {
			// A failed run's event ring is the post-mortem: dump it
			// before exiting.
			if ev := systems[i].Events(); ev != nil {
				ev.Dump(os.Stderr)
			}
			fatal(errs[i])
		}
		if err := dumpTelemetry(systems[i], o.cfgs[i].Workload, o.timeline, o.eventsOut, batch); err != nil {
			fatal(err)
		}
		if o.traceOut != "" {
			if err := writeTrace(systems[i], o.cfgs[i].Workload, o.traceOut, batch); err != nil {
				fatal(err)
			}
		}
		if o.asJSON {
			if err := emitJSON(os.Stdout, res); err != nil {
				fatal(err)
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		report(os.Stdout, res)
	}
}

// batchPath inserts the run label before the path's extension when several
// runs share one -timeline/-events-out flag ("tl.csv" -> "tl.GUPS.csv").
func batchPath(path, label string, batch bool) string {
	if !batch {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + label + ext
}

// dumpTelemetry writes a finished run's recorder and event log to the
// requested files.
func dumpTelemetry(s *sim.System, label, timeline, eventsOut string, batch bool) error {
	if timeline != "" {
		if rec := s.Recorder(); rec != nil {
			path := batchPath(timeline, label, batch)
			if err := writeTo(path, func(w io.Writer) error {
				if strings.HasSuffix(path, ".json") {
					return rec.WriteJSON(w)
				}
				return rec.WriteCSV(w)
			}); err != nil {
				return err
			}
		}
	}
	if eventsOut != "" { // parseArgs refused it unless -events armed the log
		if err := writeTo(batchPath(eventsOut, label, batch), s.Events().Dump); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace exports a finished run's sampled request spans (-trace-out)
// as a Chrome/Perfetto trace: one track per DRAM bank carrying the
// sampled read/write lifetimes with their component breakdowns as span
// arguments, plus an instant track with the controller's episodic state
// events (refresh, power-down, alert, ...) when -events captured them.
// Spans are a sample (every -trace-sample-th completion, ring-buffered),
// not a census.
func writeTrace(s *sim.System, label, path string, batch bool) error {
	spans := s.LatSpans()
	tspans := make([]obs.TraceSpan, len(spans))
	for i, sp := range spans {
		args := make(map[string]int64, int(memctrl.NumLatComponents))
		for c := memctrl.LatComponent(0); c < memctrl.NumLatComponents; c++ {
			if sp.Break[c] != 0 {
				args[c.String()] = sp.Break[c]
			}
		}
		tspans[i] = obs.TraceSpan{
			Name:  sp.Kind.String(),
			Track: fmt.Sprintf("ch%d.r%d.b%d", sp.Loc.Channel, sp.Loc.Rank, sp.Loc.Bank),
			Start: sp.Arrive,
			End:   sp.Done,
			Args:  args,
		}
	}
	// The controller's state-level events share the spans' memory clock;
	// the episodic ones explain gaps between spans, so they ride along.
	var instants []obs.Event
	if ev := s.Events(); ev != nil {
		for _, e := range ev.Events() {
			if !strings.HasPrefix(e.Scope, "memctrl.") {
				continue
			}
			switch e.Kind {
			case "refresh", "power-down", "self-refresh", "alert", "rfm", "wake":
				instants = append(instants, e)
			}
		}
	}
	opt := obs.ChromeTraceOptions{
		Process:      "prasim " + label,
		CycleNs:      sim.MemCycleNs,
		InstantTrack: "dram",
	}
	return writeTo(batchPath(path, label, batch), func(w io.Writer) error {
		return obs.WriteChromeTrace(w, opt, tspans, instants)
	})
}

// writeTo creates path and streams fn's output into it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// report renders the human-readable tables for one run.
func report(w io.Writer, res sim.Result) {
	fmt.Fprintf(w, "workload %s  scheme %s  policy %s  dbi %v\n", res.Workload, res.Scheme, res.Policy, res.DBI)
	fmt.Fprintf(w, "apps: %v\n\n", res.Apps)

	perf := stats.NewTable("core", "app", "IPC")
	for i, ipc := range res.CoreIPC {
		perf.Row(i, res.Apps[i], ipc)
	}
	fmt.Fprintln(w, perf.String())

	fmt.Fprintf(w, "cycles %d  runtime %.1f us  sum-IPC %.3f\n\n", res.Cycles, res.RuntimeNs()/1000, res.SumIPC())

	mem := stats.NewTable("metric", "value")
	mem.Row("DRAM reads", res.Ctrl.ReadsServed)
	mem.Row("DRAM writes", res.Ctrl.WritesServed)
	mem.Row("row hit rate (read)", fmt.Sprintf("%.1f%%", 100*res.RowHitRateRead()))
	mem.Row("row hit rate (write)", fmt.Sprintf("%.1f%%", 100*res.RowHitRateWrite()))
	mem.Row("false hits (read)", fmt.Sprintf("%.2f%%", 100*res.FalseHitRateRead()))
	mem.Row("false hits (write)", fmt.Sprintf("%.2f%%", 100*res.FalseHitRateWrite()))
	mem.Row("avg read latency", fmt.Sprintf("%.1f ns", res.AvgReadLatencyNs()))
	mem.Row("avg write latency", fmt.Sprintf("%.1f ns", res.AvgWriteLatencyNs()))
	mem.Row("activations", res.Dev.Activations())
	mem.Row("avg act granularity", fmt.Sprintf("%.2f/8", res.Dev.AvgGranularity()))
	mem.Row("write words on bus", fmt.Sprintf("%d of %d", res.Dev.WordsWritten, res.Dev.WordBudget))
	mem.Row("refreshes", res.Dev.Refreshes)
	if res.Dev.PerBankRefreshes > 0 {
		mem.Row("per-bank refreshes", res.Dev.PerBankRefreshes)
	}
	if res.Dev.PostponedRefreshes > 0 || res.Dev.PulledInRefreshes > 0 {
		mem.Row("postponed/pulled-in", fmt.Sprintf("%d/%d", res.Dev.PostponedRefreshes, res.Dev.PulledInRefreshes))
	}
	if res.Ctrl.Alerts > 0 || res.Dev.RFMs > 0 {
		mem.Row("mitigation alerts", res.Ctrl.Alerts)
		mem.Row("RFM commands", res.Dev.RFMs)
		mem.Row("alert stall cycles", res.Ctrl.AlertStallCycles)
		if res.Dev.RowSpills > 0 {
			mem.Row("counter-table spills", res.Dev.RowSpills)
		}
	}
	mem.Row("low-power residency", fmt.Sprintf("%.1f%%", 100*res.LowPowerResidency()))
	if res.Dev.SelfRefEntries > 0 {
		mem.Row("self-refresh residency", fmt.Sprintf("%.1f%%", 100*res.SelfRefreshResidency()))
	}
	fmt.Fprintln(w, mem.String())

	// The latency-attribution tables only exist when -latbreak (or
	// -trace-out) ran the accounting; the histogram count is the witness.
	if res.Ctrl.ReadLatHist.N > 0 || res.Ctrl.WriteLatHist.N > 0 {
		lat := stats.NewTable("latency component", "read", "write")
		for c := memctrl.LatComponent(0); c < memctrl.NumLatComponents; c++ {
			lat.Row(c.String(),
				fmt.Sprintf("%.1f%%", 100*res.ReadLatShare(c)),
				fmt.Sprintf("%.1f%%", 100*res.WriteLatShare(c)))
		}
		fmt.Fprintln(w, lat.String())
		fmt.Fprintf(w, "read latency p50/p95/p99/p99.9: %.0f / %.0f / %.0f / %.0f ns   write p50/p99: %.0f / %.0f ns\n\n",
			res.ReadLatQuantileNs(0.50), res.ReadLatQuantileNs(0.95),
			res.ReadLatQuantileNs(0.99), res.ReadLatQuantileNs(0.999),
			res.WriteLatQuantileNs(0.50), res.WriteLatQuantileNs(0.99))
	}

	gran := stats.NewTable("granularity", "share")
	for g := 1; g <= 8; g++ {
		gran.Row(fmt.Sprintf("%d/8", g), fmt.Sprintf("%.2f%%", 100*res.GranularityShare(g)))
	}
	fmt.Fprintln(w, gran.String())

	pw := stats.NewTable("component", "energy uJ", "share")
	tot := res.Energy.Total()
	for c := power.Component(0); c < power.NumComponents; c++ {
		pw.Row(c.String(), res.Energy[c]/1e6, fmt.Sprintf("%.1f%%", 100*stats.Ratio(res.Energy[c], tot)))
	}
	pw.Row("TOTAL", tot/1e6, "100%")
	fmt.Fprintln(w, pw.String())
	fmt.Fprintf(w, "avg DRAM power %.1f mW   EDP %.3g pJ*ns\n", res.AvgPowerMW(), res.EDP())
	if band := res.PowerBandMW(); res.Cal.Name != "" && res.Cal.Name != "none" {
		fmt.Fprintf(w, "calibrated power band (%s): %.1f / %.1f / %.1f mW (min/nom/max, %.1f%% spread)\n",
			res.Cal.Name, band.Min, band.Nom, band.Max, 100*band.Spread())
	}
}

// jsonReport is the machine-readable output shape of -json.
type jsonReport struct {
	Workload string    `json:"workload"`
	Scheme   string    `json:"scheme"`
	Policy   string    `json:"policy"`
	DBI      bool      `json:"dbi"`
	Apps     []string  `json:"apps"`
	Cycles   int64     `json:"cycles"`
	CoreIPC  []float64 `json:"core_ipc"`
	SumIPC   float64   `json:"sum_ipc"`

	Reads         int64   `json:"dram_reads"`
	Writes        int64   `json:"dram_writes"`
	RowHitRead    float64 `json:"row_hit_read"`
	RowHitWrite   float64 `json:"row_hit_write"`
	FalseHitRead  float64 `json:"false_hit_read"`
	FalseHitWrite float64 `json:"false_hit_write"`
	AvgReadNs     float64 `json:"avg_read_latency_ns"`
	AvgWriteNs    float64 `json:"avg_write_latency_ns"`

	// Latency attribution (-latbreak); omitted when the run did not carry
	// the accounting. Shares are fractions of the total latency of the
	// request kind; percentiles are log-bucket upper bounds in ns.
	ReadLatShares  map[string]float64 `json:"read_lat_shares,omitempty"`
	WriteLatShares map[string]float64 `json:"write_lat_shares,omitempty"`
	ReadLatPctNs   map[string]float64 `json:"read_lat_percentiles_ns,omitempty"`
	WriteLatPctNs  map[string]float64 `json:"write_lat_percentiles_ns,omitempty"`

	Activations    int64     `json:"activations"`
	AvgGranularity float64   `json:"avg_act_granularity"`
	GranShares     []float64 `json:"act_granularity_shares"`

	EnergyPJ   map[string]float64 `json:"energy_pj"`
	AvgPowerMW float64            `json:"avg_power_mw"`
	EDP        float64            `json:"edp_pj_ns"`

	Refreshes          int64   `json:"refreshes"`
	PerBankRefreshes   int64   `json:"perbank_refreshes,omitempty"`
	PostponedRefreshes int64   `json:"postponed_refreshes,omitempty"`
	PulledInRefreshes  int64   `json:"pulledin_refreshes,omitempty"`
	LowPowerResidency  float64 `json:"low_power_residency"`
	SelfRefResidency   float64 `json:"selfref_residency"`

	Alerts           int64 `json:"alerts,omitempty"`
	AlertStallCycles int64 `json:"alert_stall_cycles,omitempty"`
	RFMs             int64 `json:"rfms,omitempty"`
	RowSpills        int64 `json:"row_spills,omitempty"`

	PowerCal    string      `json:"power_cal,omitempty"`
	PowerBandMW *[3]float64 `json:"power_band_mw,omitempty"` // min, nominal, max
}

func emitJSON(w io.Writer, res sim.Result) error {
	rep := jsonReport{
		Workload: res.Workload,
		Scheme:   res.Scheme.String(),
		Policy:   res.Policy.String(),
		DBI:      res.DBI,
		Apps:     res.Apps,
		Cycles:   res.Cycles,
		CoreIPC:  res.CoreIPC,
		SumIPC:   res.SumIPC(),

		Reads:         res.Ctrl.ReadsServed,
		Writes:        res.Ctrl.WritesServed,
		RowHitRead:    res.RowHitRateRead(),
		RowHitWrite:   res.RowHitRateWrite(),
		FalseHitRead:  res.FalseHitRateRead(),
		FalseHitWrite: res.FalseHitRateWrite(),
		AvgReadNs:     res.AvgReadLatencyNs(),
		AvgWriteNs:    res.AvgWriteLatencyNs(),

		Activations:    res.Dev.Activations(),
		AvgGranularity: res.Dev.AvgGranularity(),

		EnergyPJ:   make(map[string]float64, int(power.NumComponents)),
		AvgPowerMW: res.AvgPowerMW(),
		EDP:        res.EDP(),

		Refreshes:          res.Dev.Refreshes,
		PerBankRefreshes:   res.Dev.PerBankRefreshes,
		PostponedRefreshes: res.Dev.PostponedRefreshes,
		PulledInRefreshes:  res.Dev.PulledInRefreshes,
		LowPowerResidency:  res.LowPowerResidency(),
		SelfRefResidency:   res.SelfRefreshResidency(),

		Alerts:           res.Ctrl.Alerts,
		AlertStallCycles: res.Ctrl.AlertStallCycles,
		RFMs:             res.Dev.RFMs,
		RowSpills:        res.Dev.RowSpills,
	}
	if res.Cal.Name != "" && res.Cal.Name != "none" {
		band := res.PowerBandMW()
		rep.PowerCal = res.Cal.Name
		rep.PowerBandMW = &[3]float64{band.Min, band.Nom, band.Max}
	}
	if res.Ctrl.ReadLatHist.N > 0 || res.Ctrl.WriteLatHist.N > 0 {
		rep.ReadLatShares = make(map[string]float64, int(memctrl.NumLatComponents))
		rep.WriteLatShares = make(map[string]float64, int(memctrl.NumLatComponents))
		for c := memctrl.LatComponent(0); c < memctrl.NumLatComponents; c++ {
			rep.ReadLatShares[c.String()] = res.ReadLatShare(c)
			rep.WriteLatShares[c.String()] = res.WriteLatShare(c)
		}
		rep.ReadLatPctNs = map[string]float64{
			"p50":  res.ReadLatQuantileNs(0.50),
			"p95":  res.ReadLatQuantileNs(0.95),
			"p99":  res.ReadLatQuantileNs(0.99),
			"p999": res.ReadLatQuantileNs(0.999),
		}
		rep.WriteLatPctNs = map[string]float64{
			"p50":  res.WriteLatQuantileNs(0.50),
			"p95":  res.WriteLatQuantileNs(0.95),
			"p99":  res.WriteLatQuantileNs(0.99),
			"p999": res.WriteLatQuantileNs(0.999),
		}
	}
	for g := 1; g <= 8; g++ {
		rep.GranShares = append(rep.GranShares, res.GranularityShare(g))
	}
	for c := power.Component(0); c < power.NumComponents; c++ {
		rep.EnergyPJ[c.String()] = res.Energy[c]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prasim:", err)
	os.Exit(1)
}
