// Command benchgate is CI's performance gate: a default mode plus six
// flag-selected ones. The timing modes share one principle: CI has no
// stored hardware-normalized ns/op to diff against, so every invariant
// under guard is a *ratio between two benchmarks run back to back on the
// same host*, which cancels the machine out (-power and -ingest gate a
// golden table and absolute format contracts instead).
//
// The default mode is the telemetry-overhead gate: it runs the
// internal/obs hot-path benchmarks (the same DRAM command loop with no
// telemetry code at all, with telemetry disabled, and with it fully
// enabled) several times, writes the measurements to BENCH_obs.json, and
// fails when the telemetry-off path costs more than 1.05x the no-probe
// baseline (median of the back-to-back off/baseline ratios) — "off" is no
// longer free (a broken level guard, a probe read left in the per-cycle
// path).
// The enabled path is recorded for information: off measures ~0.05x on, so
// a gate against it could not fail for the regression it describes.
//
// -speed switches to the cycle-skipping gate: it runs the paired
// full-system internal/sim benchmarks (identical deterministic runs with
// event-driven fast-forwarding on and off) and fails when either
//
//   - the memory-bound pair's noskip/skip ratio falls below its floor
//     (the skip path stopped skipping, or its bookkeeping got expensive —
//     the ">5% skip-path regression" class of bug shows up here first,
//     since the run work is identical by construction), or
//   - the compute-bound skip run costs more than 1.05x its noskip twin
//     (the NextEvent bookkeeping must be free when there is nothing to
//     skip, which also guards the per-cycle baseline itself: both runs
//     share every instruction of the simulation proper).
//
// Measurements go to BENCH_speed.json, alongside a reference block with
// the development-time absolute numbers against the pre-skipping tree.
//
// -warm switches to the warmup-checkpointing gate: it runs the paired
// full-system internal/sim campaign benchmarks (four configurations
// sharing one warmup fingerprint, with checkpoint reuse on and off) and
// fails when either
//
//   - the campaign's cold/checkpoint ratio falls below the 1.3x floor
//     (restoring a warmed snapshot stopped paying for itself), or
//   - the single-run producer pair (warm + serialize + measure versus a
//     monolithic run) exceeds its overhead ceiling — serializing the
//     ~1.7 MB snapshot costs 1-3 ms regardless of run length, so a ratio
//     past the ceiling means serialization grew with the run.
//
// Measurements go to BENCH_warm.json.
//
// -power switches to the energy-band gate (power.go): a deterministic
// configuration matrix is simulated and its calibrated min/nominal/max
// power bands are compared against the checked-in golden table
// (golden_power.json), so a change that silently shifts power-model
// numbers fails CI until the table is regenerated (-update-power) and the
// diff committed. Measurements go to BENCH_power.json.
//
// -hammer switches to the RowHammer mitigation-overhead gate (hammer.go):
// paired full-system runs with the Alert/RFM mitigation on and off, on an
// attacking and a benign workload, gated on the on/off wall-clock ratios.
// Measurements go to BENCH_hammer.json.
//
// -lat switches to the latency-attribution overhead gate (lat.go): paired
// full-system runs with per-request latency attribution on and off, gated
// on the on/off wall-clock ratio. Measurements go to BENCH_lat.json.
//
// -ingest switches to the workload-ingestion gate (ingest.go): the v2
// trace decoder must sustain the records/sec floor and the streaming
// replay loop must run at zero steady-state allocations per record.
// These are absolute contracts of the format, not host-relative ratios.
// Measurements go to BENCH_ingest.json.
//
// Usage: go run ./tools/benchgate [-speed|-warm|-power|-hammer|-lat|-ingest] [-out FILE] [-count 5]
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

const threshold = 1.05

// Floors/ceilings for the -speed gate. The memory-bound speedup floor sits
// well under the ~2.4x measured at development time so host variation
// cannot flake the gate, while still catching any change that stops the
// fast path from paying for itself.
const (
	speedupFloor  = 1.5
	overheadCeil  = 1.05
	memBoundSkip  = "BenchmarkSpeedMemBoundSkip"
	memBoundFull  = "BenchmarkSpeedMemBoundNoSkip"
	compBoundSkip = "BenchmarkSpeedComputeBoundSkip"
	compBoundFull = "BenchmarkSpeedComputeBoundNoSkip"
)

// Floors/ceilings for the -warm gate. The campaign floor is the feature's
// contract (a warmup-dominated campaign must run at least 1.3x faster with
// checkpoint reuse; ~2.1x measured at development time). The single-run
// ceiling is looser than the -speed one because the producer pair carries
// a real constant cost — serializing the snapshot, 1-3 ms against a
// ~150 ms run — that sits near the host noise floor.
const (
	warmSpeedupFloor = 1.3
	warmOverheadCeil = 1.10
	warmCampCkpt     = "BenchmarkWarmCampaignCheckpoint"
	warmCampCold     = "BenchmarkWarmCampaignCold"
	warmSingleCkpt   = "BenchmarkWarmSingleCheckpoint"
	warmSingleCold   = "BenchmarkWarmSingleCold"
)

type report struct {
	BaselineNsOp float64 `json:"baseline_ns_op"` // the loop with no telemetry code in it
	OffNsOp      float64 `json:"off_ns_op"`
	OnNsOp       float64 `json:"on_ns_op"`
	Ratio        float64 `json:"off_over_baseline_ratio"` // median of the paired ratios, gated against Threshold
	OffOverOn    float64 `json:"off_over_on_ratio"`       // information only
	Threshold    float64 `json:"threshold"`
	Count        int     `json:"count"`
	Pass         bool    `json:"pass"`
}

type speedPair struct {
	SkipNsOp   float64 `json:"skip_ns_op"`
	NoSkipNsOp float64 `json:"noskip_ns_op"`
	Speedup    float64 `json:"noskip_over_skip"`
}

type speedReport struct {
	MemoryBound  speedPair `json:"memory_bound"`  // single-core LinkedList
	ComputeBound speedPair `json:"compute_bound"` // 4-core bzip2
	SpeedupFloor float64   `json:"memory_bound_speedup_floor"`
	OverheadCeil float64   `json:"compute_bound_overhead_ceiling"`
	Count        int       `json:"count"`
	Pass         bool      `json:"pass"`
	// Reference records the development-time absolute measurements that
	// motivated the gate (best of 3, single host), including the wall
	// clock of the same runs on the tree as it stood before event-driven
	// skipping landed. CI never compares against these — they are context
	// for a human reading the artifact, not a baseline.
	Reference speedRef `json:"reference_dev_measurements"`
}

type warmPair struct {
	CkptNsOp float64 `json:"checkpoint_ns_op"`
	ColdNsOp float64 `json:"cold_ns_op"`
	Ratio    float64 `json:"cold_over_checkpoint"`
}

type warmReport struct {
	Campaign     warmPair `json:"campaign"`   // 4 configs sharing one warmup fingerprint
	Single       warmPair `json:"single_run"` // producer path vs monolithic run
	SpeedupFloor float64  `json:"campaign_speedup_floor"`
	OverheadCeil float64  `json:"single_run_overhead_ceiling"`
	Count        int      `json:"count"`
	Pass         bool     `json:"pass"`
	// Reference records the development-time measurements that sized the
	// gate (best of 5, single host). CI never compares against these —
	// they are context for a human reading the artifact, not a baseline.
	Reference warmRef `json:"reference_dev_measurements"`
}

type warmRef struct {
	Host            string  `json:"host"`
	CampaignCkptMs  float64 `json:"campaign_checkpoint_ms"`
	CampaignColdMs  float64 `json:"campaign_cold_ms"`
	CampaignSpeedup float64 `json:"campaign_speedup"`
	CheckpointBytes int64   `json:"checkpoint_payload_bytes"`
	SerializeMs     float64 `json:"checkpoint_serialize_ms"`
}

type speedRef struct {
	Host             string  `json:"host"`
	MemBoundSkipMs   float64 `json:"memory_bound_skip_ms"`
	MemBoundNoSkipMs float64 `json:"memory_bound_noskip_ms"`
	MemBoundSeedMs   float64 `json:"memory_bound_preskip_tree_ms"`
	MemBoundVsSeed   float64 `json:"memory_bound_speedup_vs_preskip_tree"`
	GUPSSkipMs       float64 `json:"gups_skip_ms"`
	GUPSSeedMs       float64 `json:"gups_preskip_tree_ms"`
	GUPSVsSeed       float64 `json:"gups_speedup_vs_preskip_tree"`
}

// benchLine matches e.g. "BenchmarkTelemetryOffHotPath  1  115029 ns/op".
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\w+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	speed := flag.Bool("speed", false, "run the cycle-skipping speed gate instead of the telemetry-overhead gate")
	warm := flag.Bool("warm", false, "run the warmup-checkpointing speed gate instead of the telemetry-overhead gate")
	pwr := flag.Bool("power", false, "run the energy-band golden-table gate instead of the telemetry-overhead gate")
	hammer := flag.Bool("hammer", false, "run the RowHammer mitigation-overhead gate instead of the telemetry-overhead gate")
	lat := flag.Bool("lat", false, "run the latency-attribution overhead gate instead of the telemetry-overhead gate")
	ingest := flag.Bool("ingest", false, "run the workload-ingestion gate (v2 decode throughput, zero-alloc streaming replay) instead of the telemetry-overhead gate")
	out := flag.String("out", "", "where to write the measurement report (default BENCH_obs.json; BENCH_speed.json with -speed; BENCH_warm.json with -warm; BENCH_power.json with -power; BENCH_hammer.json with -hammer; BENCH_lat.json with -lat; BENCH_ingest.json with -ingest)")
	count := flag.Int("count", 5, "benchmark repetitions (minimum is kept)")
	updatePower, golden := powerFlags()
	flag.Parse()
	modes := 0
	for _, m := range []bool{*speed, *warm, *pwr, *hammer, *lat, *ingest} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "benchgate: -speed, -warm, -power, -hammer, -lat, and -ingest are mutually exclusive")
		os.Exit(1)
	}
	if *out == "" {
		switch {
		case *speed:
			*out = "BENCH_speed.json"
		case *warm:
			*out = "BENCH_warm.json"
		case *pwr:
			*out = "BENCH_power.json"
		case *hammer:
			*out = "BENCH_hammer.json"
		case *lat:
			*out = "BENCH_lat.json"
		case *ingest:
			*out = "BENCH_ingest.json"
		default:
			*out = "BENCH_obs.json"
		}
	}
	switch {
	case *speed:
		runSpeed(*out, *count)
	case *warm:
		runWarm(*out, *count)
	case *pwr:
		runPower(*out, *golden, *updatePower)
	case *hammer:
		runHammer(*out, *count)
	case *lat:
		runLat(*out, *count)
	case *ingest:
		runIngest(*out, *count)
	default:
		runObs(*out, *count)
	}
}

// runBench runs the named benchmarks in pkg count times at -benchtime 1x
// and returns the minimum ns/op per benchmark: noise on shared CI machines
// only inflates timings, so the minimum is the best estimate of true cost.
func runBench(pattern, pkg string, count int) map[string]float64 {
	return benchMins(exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", "1x",
		"-count", strconv.Itoa(count), pkg))
}

// benchMins runs a benchmark command and returns the minimum ns/op per
// benchmark in its output.
func benchMins(cmd *exec.Cmd) map[string]float64 {
	raw, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: benchmark run failed: %v\n%s", err, raw)
		os.Exit(1)
	}
	mins := map[string]float64{}
	for _, m := range benchLine.FindAllStringSubmatch(string(raw), -1) {
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := mins[m[1]]; !ok || ns < cur {
			mins[m[1]] = ns
		}
	}
	return mins
}

func writeReport(out string, rep any) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func runSpeed(out string, count int) {
	mins := runBench("BenchmarkSpeed", "./internal/sim", count)
	need := []string{memBoundSkip, memBoundFull, compBoundSkip, compBoundFull}
	for _, n := range need {
		if _, ok := mins[n]; !ok {
			fmt.Fprintf(os.Stderr, "benchgate: missing benchmark %s (parsed %v)\n", n, mins)
			os.Exit(1)
		}
	}
	rep := speedReport{
		MemoryBound: speedPair{
			SkipNsOp:   mins[memBoundSkip],
			NoSkipNsOp: mins[memBoundFull],
			Speedup:    mins[memBoundFull] / mins[memBoundSkip],
		},
		ComputeBound: speedPair{
			SkipNsOp:   mins[compBoundSkip],
			NoSkipNsOp: mins[compBoundFull],
			Speedup:    mins[compBoundFull] / mins[compBoundSkip],
		},
		SpeedupFloor: speedupFloor,
		OverheadCeil: overheadCeil,
		Count:        count,
		Reference: speedRef{
			Host:             "Intel Xeon @ 2.10GHz (development container)",
			MemBoundSkipMs:   35.6,
			MemBoundNoSkipMs: 86.6,
			MemBoundSeedMs:   119.5,
			MemBoundVsSeed:   3.36,
			GUPSSkipMs:       92.3,
			GUPSSeedMs:       165.0,
			GUPSVsSeed:       1.79,
		},
	}
	rep.Pass = rep.MemoryBound.Speedup >= speedupFloor &&
		rep.ComputeBound.SkipNsOp <= rep.ComputeBound.NoSkipNsOp*overheadCeil
	writeReport(out, rep)
	fmt.Printf("benchgate: mem-bound %.1fms skip / %.1fms noskip (%.2fx, floor %.1fx); compute-bound %.1fms skip / %.1fms noskip -> %s\n",
		rep.MemoryBound.SkipNsOp/1e6, rep.MemoryBound.NoSkipNsOp/1e6, rep.MemoryBound.Speedup, speedupFloor,
		rep.ComputeBound.SkipNsOp/1e6, rep.ComputeBound.NoSkipNsOp/1e6,
		map[bool]string{true: "PASS", false: "FAIL"}[rep.Pass])
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "benchgate: cycle-skipping gate failed: either the fast-forward path lost its speedup on the memory-bound run, or its bookkeeping now taxes the compute-bound run")
		os.Exit(1)
	}
}

func runWarm(out string, count int) {
	mins := runBench("BenchmarkWarm", "./internal/sim", count)
	need := []string{warmCampCkpt, warmCampCold, warmSingleCkpt, warmSingleCold}
	for _, n := range need {
		if _, ok := mins[n]; !ok {
			fmt.Fprintf(os.Stderr, "benchgate: missing benchmark %s (parsed %v)\n", n, mins)
			os.Exit(1)
		}
	}
	rep := warmReport{
		Campaign: warmPair{
			CkptNsOp: mins[warmCampCkpt],
			ColdNsOp: mins[warmCampCold],
			Ratio:    mins[warmCampCold] / mins[warmCampCkpt],
		},
		Single: warmPair{
			CkptNsOp: mins[warmSingleCkpt],
			ColdNsOp: mins[warmSingleCold],
			Ratio:    mins[warmSingleCold] / mins[warmSingleCkpt],
		},
		SpeedupFloor: warmSpeedupFloor,
		OverheadCeil: warmOverheadCeil,
		Count:        count,
		Reference: warmRef{
			Host:            "Intel Xeon @ 2.10GHz (development container)",
			CampaignCkptMs:  142.7,
			CampaignColdMs:  300.8,
			CampaignSpeedup: 2.11,
			CheckpointBytes: 1_658_243,
			SerializeMs:     2.0,
		},
	}
	rep.Pass = rep.Campaign.Ratio >= warmSpeedupFloor &&
		rep.Single.CkptNsOp <= rep.Single.ColdNsOp*warmOverheadCeil
	writeReport(out, rep)
	fmt.Printf("benchgate: campaign %.1fms ckpt / %.1fms cold (%.2fx, floor %.1fx); single %.1fms ckpt / %.1fms cold (ceiling %.2fx) -> %s\n",
		rep.Campaign.CkptNsOp/1e6, rep.Campaign.ColdNsOp/1e6, rep.Campaign.Ratio, warmSpeedupFloor,
		rep.Single.CkptNsOp/1e6, rep.Single.ColdNsOp/1e6, warmOverheadCeil,
		map[bool]string{true: "PASS", false: "FAIL"}[rep.Pass])
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "benchgate: warmup-checkpointing gate failed: either restoring a warmed snapshot no longer beats re-warming the campaign, or producing a snapshot now taxes a single run")
		os.Exit(1)
	}
}

func runObs(out string, count int) {
	// A 5% ceiling does not survive comparing the two minima on a shared
	// host: measured here, one gate run in ten saw every off sample inside a
	// noise burst the baseline samples missed, and under `go test` one
	// back-to-back off/baseline pair in ten is off by more than 5% (run
	// directly, the test binary's pairs stay within 3%). So the binary is
	// built once, each repetition is its own process running baseline and
	// off back to back (best of three each), where host noise hits both
	// alike, and the gated figure is the median of the repetitions'
	// off/baseline ratios. The reported ns/op stay minima.
	const baseName, offName, onName = "BenchmarkTelemetryBaselineHotPath", "BenchmarkTelemetryOffHotPath", "BenchmarkTelemetryOnHotPath"
	dir, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "obs.test")
	if raw, err := exec.Command("go", "test", "-c", "-o", bin, "./internal/obs").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: building the benchmark binary failed: %v\n%s", err, raw)
		os.Exit(1)
	}
	mins := map[string]float64{}
	var ratios []float64
	for i := 0; i < count; i++ {
		round := benchMins(exec.Command(bin, "-test.run", "^$",
			"-test.bench", "BenchmarkTelemetry", "-test.benchtime", "1x", "-test.count", "3"))
		if round[baseName] == 0 || round[offName] == 0 || round[onName] == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: missing benchmark results (parsed %v)\n", round)
			os.Exit(1)
		}
		ratios = append(ratios, round[offName]/round[baseName])
		for name, ns := range round {
			if cur, ok := mins[name]; !ok || ns < cur {
				mins[name] = ns
			}
		}
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]

	rep := report{
		BaselineNsOp: mins[baseName],
		OffNsOp:      mins[offName],
		OnNsOp:       mins[onName],
		Ratio:        ratio,
		OffOverOn:    mins[offName] / mins[onName],
		Threshold:    threshold,
		Count:        count,
		Pass:         ratio <= threshold,
	}
	writeReport(out, rep)
	fmt.Printf("benchgate: baseline %.0f ns/op, off %.0f ns/op, ratio %.3f (threshold %.2f); on %.0f ns/op -> %s\n",
		rep.BaselineNsOp, rep.OffNsOp, rep.Ratio, rep.Threshold, rep.OnNsOp, map[bool]string{true: "PASS", false: "FAIL"}[rep.Pass])
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "benchgate: the telemetry-off hot path costs more than the same loop without telemetry code; a disabled-path guard has likely broken")
		os.Exit(1)
	}
}
