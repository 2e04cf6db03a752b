package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root repeats name, unit and direction (and, for end-to-end
// metrics, the regression bound); TestMetricsMatchBenchmarkJSON keeps the
// two in step. exact marks counts and simulated values: they repeat
// bit-for-bit between runs of one commit and seed, so -compare demands
// equality for them instead of a tolerance.
type metricDef struct {
	name, unit, better string
	exact              bool
}

// endToEnd are the figures a user of the simulator waits on. All are host
// measurements; every one applies to every workload and is never zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "sim_cycles_per_s", unit: "cycles/s", better: "higher"},
}

// perLayer are the outside-in measurements of single modules, named
// layer.metric. A metric that does not apply to a workload (no cpu in a
// trace replay) is left out of the report and printed as 0 on the
// contract line, which must carry every declared name.
var perLayer = []metricDef{
	{name: "sim.new_s", unit: "s", better: "lower"},
	{name: "sim.warmup_s", unit: "s", better: "lower"},
	{name: "sim.measure_s", unit: "s", better: "lower"},
	{name: "sim.ticks_executed", unit: "count", better: "lower", exact: true},
	{name: "sim.cycles_skipped", unit: "count", better: "higher", exact: true},
	{name: "sim.skip_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "sim.ns_per_tick", unit: "ns", better: "lower"},
	{name: "sim.loop_share", unit: "share", better: "lower"},
	{name: "sim.nextevent_share", unit: "share", better: "lower"},
	{name: "sim.ff_jumps", unit: "count", better: "higher", exact: true},
	{name: "sim.ff_bound_cpu", unit: "count", better: "lower", exact: true},
	{name: "sim.ff_bound_cache", unit: "count", better: "lower", exact: true},
	{name: "sim.ff_bound_memctrl", unit: "count", better: "lower", exact: true},
	{name: "sim.ff_blocked_cpu", unit: "count", better: "lower", exact: true},
	{name: "sim.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "sim.host_alloc_mb", unit: "MiB", better: "lower"},
	{name: "sim.runner_sims", unit: "count", better: "lower", exact: true},
	{name: "sim.runner_ckpt_hits", unit: "count", better: "higher", exact: true},
	{name: "sim.runner_cpu_util", unit: "ratio", better: "higher"},
	{name: "sim.runner_memo_rerun_s", unit: "s", better: "lower"},
	{name: "sim.table1_err_pp", unit: "pp", better: "lower", exact: true},

	{name: "workload.next_calls", unit: "count", better: "lower", exact: true},
	{name: "workload.next_share", unit: "share", better: "lower"},
	{name: "workload.next_ns", unit: "ns", better: "lower"},

	{name: "cpu.tick_calls", unit: "count", better: "lower", exact: true},
	{name: "cpu.tick_self_share", unit: "share", better: "lower"},
	{name: "cpu.tick_self_ns", unit: "ns", better: "lower"},
	{name: "cpu.quiescent_ticks", unit: "count", better: "higher", exact: true},
	{name: "cpu.mem_attempts", unit: "count", better: "lower", exact: true},
	{name: "cpu.mem_rejects", unit: "count", better: "lower", exact: true},
	{name: "cpu.ipc_sum", unit: "ipc", better: "higher", exact: true},

	{name: "cache.access_calls", unit: "count", better: "lower", exact: true},
	{name: "cache.access_self_share", unit: "share", better: "lower"},
	{name: "cache.tick_self_share", unit: "share", better: "lower"},
	{name: "cache.fill_share", unit: "share", better: "lower"},
	{name: "cache.backend_attempts", unit: "count", better: "lower", exact: true},
	{name: "cache.backend_rejects", unit: "count", better: "lower", exact: true},
	{name: "cache.l1_miss_rate", unit: "ratio", better: "lower", exact: true},
	{name: "cache.l2_miss_rate", unit: "ratio", better: "lower", exact: true},
	{name: "cache.writebacks", unit: "count", better: "lower", exact: true},

	{name: "memctrl.tick_calls", unit: "count", better: "lower", exact: true},
	{name: "memctrl.tick_self_share", unit: "share", better: "lower"},
	{name: "memctrl.enqueue_calls", unit: "count", better: "lower", exact: true},
	{name: "memctrl.enqueue_share", unit: "share", better: "lower"},
	{name: "memctrl.enqueue_rejects", unit: "count", better: "lower", exact: true},
	{name: "memctrl.nextevent_ns", unit: "ns", better: "lower"},
	{name: "memctrl.ns_per_request", unit: "ns", better: "lower"},
	{name: "memctrl.req_per_s", unit: "1/s", better: "higher"},
	{name: "memctrl.reads_served", unit: "count", better: "higher", exact: true},
	{name: "memctrl.writes_served", unit: "count", better: "higher", exact: true},
	{name: "memctrl.row_hit_rate", unit: "ratio", better: "higher", exact: true},
	{name: "memctrl.forwarded", unit: "count", better: "higher", exact: true},
	{name: "memctrl.avg_read_latency_ns", unit: "sim_ns", better: "lower", exact: true},
	{name: "memctrl.latbreak_overhead_ratio", unit: "ratio", better: "lower"},

	{name: "dram.acts", unit: "count", better: "lower", exact: true},
	{name: "dram.avg_act_granularity", unit: "eighths", better: "lower", exact: true},
	{name: "dram.reads", unit: "count", better: "higher", exact: true},
	{name: "dram.writes", unit: "count", better: "higher", exact: true},
	{name: "dram.precharges", unit: "count", better: "lower", exact: true},
	{name: "dram.refreshes", unit: "count", better: "lower", exact: true},
	{name: "dram.low_power_residency", unit: "ratio", better: "higher", exact: true},
	{name: "dram.cmd_ns", unit: "ns", better: "lower"},
	{name: "dram.cmd_partial_ns", unit: "ns", better: "lower"},
	{name: "dram.est_share", unit: "share", better: "lower"},

	{name: "power.avg_power_mw", unit: "mW", better: "lower", exact: true},
	{name: "power.act_pre_share", unit: "share", better: "lower", exact: true},
	{name: "power.io_share", unit: "share", better: "lower", exact: true},

	{name: "trace.records", unit: "count", better: "higher", exact: true},
	{name: "trace.file_mb", unit: "MiB", better: "lower", exact: true},
	{name: "trace.open_s", unit: "s", better: "lower"},
	{name: "trace.decode_s", unit: "s", better: "lower"},
	{name: "trace.decode_ns_per_rec", unit: "ns", better: "lower"},
	{name: "trace.replay_allocs_per_rec", unit: "1/rec", better: "lower"},
	{name: "trace.host_alloc_mb", unit: "MiB", better: "lower"},

	{name: "checkpoint.save_s", unit: "s", better: "lower"},
	{name: "checkpoint.restore_s", unit: "s", better: "lower"},
	{name: "checkpoint.bytes", unit: "bytes", better: "lower", exact: true},

	{name: "obs.recorder_overhead_ratio", unit: "ratio", better: "lower"},
}

// defs indexes both tables by metric name.
var defs = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.name] = d
	}
	for _, d := range perLayer {
		m[d.name] = d
	}
	return m
}()

// value is one measurement as the contract line and the report carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a declared metric name to its measured value.
type metrics map[string]value

// set records a measurement. An undeclared name is a bug in the benchmark
// itself, so it panics; the smoke test runs every emitting path.
func (m metrics) set(name string, v float64) {
	d, ok := defs[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	m[name] = value{Value: v, Unit: d.unit}
}

// declaration is the part of BENCHMARK.json the benchmark reads back.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(path string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
