package main

// A gate is one benchgate mode: the benchmarks of one package, run at a
// fixed benchtime, and the checks made on them. DESIGN.md §4k tabulates the
// same rows for readers.
type gate struct {
	name      string // mode flag and BENCH_<name>.json; gates[0] runs without a flag
	title     string
	pkg       string // relative to the repository root, where CI runs benchgate
	pattern   string // -bench regexp selecting every benchmark the checks name
	benchtime string
	checks    []check
}

// A check gates one figure: num's metric divided by den's, or num's metric
// alone when den is empty. why is the check's rationale and, verbatim, its
// failure message.
type check struct {
	name     string
	num, den string
	metric   string // nsOp or allocsOp
	dir      string // atMost, atLeast, or info (recorded, never gated)
	bound    float64
	why      string
}

const (
	nsOp     = "ns/op"
	allocsOp = "allocs/op"

	atMost  = "max"
	atLeast = "min"
	info    = "info"
)

// Floors sit well under, and ceilings well over, what the development host
// measures (BENCH_*.json), so host variation cannot flake a gate while a
// change that stops a fast path from paying for itself, or makes a disabled
// path cost something, still fails it.
var gates = []gate{
	{name: "obs", title: "telemetry-overhead", pkg: "./internal/obs", pattern: "BenchmarkTelemetry", benchtime: "1x", checks: []check{
		{name: "off_over_baseline", num: "BenchmarkTelemetryOffHotPath", den: "BenchmarkTelemetryBaselineHotPath", metric: nsOp, dir: atMost, bound: 1.05,
			why: "the telemetry-off hot path costs more than the same DRAM command loop with no telemetry code in it: a disabled-path guard has broken (a level check, a probe read left in the per-cycle path)"},
		{name: "on", num: "BenchmarkTelemetryOnHotPath", metric: nsOp, dir: info,
			why: "the fully enabled path, for information: off measures ~0.05x on, so a gate against it could not fail for the regression the check above describes"},
	}},
	{name: "speed", title: "cycle-skipping", pkg: "./internal/sim", pattern: "BenchmarkSpeed", benchtime: "1x", checks: []check{
		{name: "memory_bound_speedup", num: "BenchmarkSpeedMemBoundNoSkip", den: "BenchmarkSpeedMemBoundSkip", metric: nsOp, dir: atLeast, bound: 1.5,
			why: "event-driven fast-forwarding lost its speedup on the memory-bound run (single-core LinkedList): the skip path stopped skipping or its bookkeeping got expensive — the run's work is identical by construction"},
		{name: "compute_bound_overhead", num: "BenchmarkSpeedComputeBoundSkip", den: "BenchmarkSpeedComputeBoundNoSkip", metric: nsOp, dir: atMost, bound: 1.05,
			why: "the NextEvent bookkeeping taxes the compute-bound run (4-core bzip2), where there is nothing to skip and both runs share every instruction of the simulation proper"},
	}},
	{name: "hammer", title: "RowHammer mitigation-overhead", pkg: "./internal/sim", pattern: "BenchmarkHammer", benchtime: "1x", checks: []check{
		// A defended attack legitimately simulates more cycles (hammer.golden
		// records about +4% at this threshold); the ceiling catches the
		// wall-clock cost growing out of proportion to that.
		{name: "attack_overhead", num: "BenchmarkHammerAttackOn", den: "BenchmarkHammerAttackOff", metric: nsOp, dir: atMost, bound: 1.35,
			why: "defending an attack (HammerSingle alerting steadily: counter updates plus alerts, back-offs and RFM commands) costs wall clock far beyond its simulated-cycle delta"},
		{name: "benign_overhead", num: "BenchmarkHammerBenignOn", den: "BenchmarkHammerBenignOff", metric: nsOp, dir: atMost, bound: 1.15,
			why: "the per-activation counter-table update taxes a benign run (GUPS with the threshold armed but never firing) — the cost every run pays once mitigation is configured"},
	}},
	{name: "lat", title: "latency-attribution overhead", pkg: "./internal/sim", pattern: "BenchmarkLatBreak", benchtime: "1x", checks: []check{
		{name: "attribution_overhead", num: "BenchmarkLatBreakOn", den: "BenchmarkLatBreakOff", metric: nsOp, dir: atMost, bound: 1.15,
			why: "per-request latency attribution (the per-command deadline sweep, the histograms, the sampled-span ring) costs real wall clock on single-core GUPS; it is meant to be left on, so look for an allocation or a non-O(1) sweep on the hot path"},
	}},
	// Absolute contracts of the trace format and the replay path, not
	// host-relative ratios. The benchtime fixes the record count: long enough
	// to amortize one-time setup (controller, queues) under one alloc/op, so
	// any per-record allocation shows as allocs/op >= 1.
	{name: "ingest", title: "workload-ingestion", pkg: "./internal/trace", pattern: "BenchmarkIngest", benchtime: "300000x", checks: []check{
		{name: "decode_v2", num: "BenchmarkIngestDecodeV2", metric: nsOp, dir: atMost, bound: 500,
			why: "the chunked v2 trace decoder fell under its 2 Mrec/s floor (500 ns per record, >10x over the measured cost): an accidental per-record allocation or a quadratic buffer pattern"},
		{name: "replay_allocs", num: "BenchmarkIngestReplayStream", metric: allocsOp, dir: atMost, bound: 0,
			why: "the streaming replay loop allocates per record; it must run at zero steady-state heap allocations"},
		{name: "replay", num: "BenchmarkIngestReplayStream", metric: nsOp, dir: info, why: "replay cost per record, for the trajectory"},
	}},
}
