// Package pradram is a full-system reproduction of "Partial Row Activation
// for Low-Power DRAM System" (Lee, Kim, Hong, Kim — HPCA 2017): a
// cycle-level DDR3 memory-system simulator with the paper's partial row
// activation (PRA) scheme, its comparison points (fine-grained activation,
// Half-DRAM, the Dirty-Block Index), the FGD cache hierarchy, an
// out-of-order multicore front end, the Micron/CACTI power model, and
// synthetic workloads calibrated to the paper's published benchmark
// characteristics.
//
// The public API is a thin façade over the internal packages. Typical use:
//
//	cfg := pradram.DefaultConfig("GUPS")
//	cfg.Scheme = pradram.PRA
//	res, err := pradram.Run(cfg)
//	fmt.Println(res.AvgPowerMW(), res.RowHitRateWrite())
//
// The experiment drivers that regenerate every table and figure of the
// paper's evaluation are exposed through Experiments and NewRunner; the
// praexp command wraps them.
package pradram

import (
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/sim"
	"pradram/internal/workload"
)

// CPUCycleNs is one CPU cycle in nanoseconds (the 3.2 GHz core clock of
// Table 3); Result.Cycles converts to wall time through it.
const CPUCycleNs = sim.CPUCycleNs

// MemCycleNs is one DRAM command-clock cycle in nanoseconds (DDR3-1600:
// the memory controller ticks every fourth CPU cycle). Latency breakdowns
// and spans are stamped in this clock.
const MemCycleNs = sim.CPUCycleNs * 4

// Scheme selects the row-activation architecture (Section 5.2 of the
// paper).
type Scheme = memctrl.Scheme

// The schemes under study.
const (
	// Baseline is the conventional DRAM system.
	Baseline = memctrl.Baseline
	// FGA is half-row fine-grained activation with broken prefetch.
	FGA = memctrl.FGA
	// HalfDRAM is Zhang et al.'s half-row, full-bandwidth organization.
	HalfDRAM = memctrl.HalfDRAM
	// PRA is the paper's partial row activation for writes.
	PRA = memctrl.PRA
	// HalfDRAMPRA combines Half-DRAM with PRA (Section 5.2.3).
	HalfDRAMPRA = memctrl.HalfDRAMPRA
	// SDS is the Skinflint DRAM System, the inter-chip comparison point
	// of Section 3 (writes skip clean chips).
	SDS = memctrl.SDS
)

// Policy selects the row-buffer management policy.
type Policy = memctrl.Policy

// The row-buffer management policies of Section 5.1.2, plus the classic
// open-page policy provided as an extension.
const (
	RelaxedClose    = memctrl.RelaxedClose
	RestrictedClose = memctrl.RestrictedClose
	OpenPage        = memctrl.OpenPage
)

// PDPolicy selects when idle ranks enter power-down (DESIGN.md §4f).
type PDPolicy = memctrl.PDPolicy

// The power-down entry policies.
const (
	// PDImmediate enters power-down as soon as a rank is idle and the
	// entry is timing-legal (the default).
	PDImmediate = memctrl.PDImmediate
	// PDNone never powers ranks down (the pre-§4f behaviour).
	PDNone = memctrl.PDNone
	// PDTimed enters power-down after Config.PDTimeout idle memory cycles.
	PDTimed = memctrl.PDTimed
	// PDQueueAware enters immediately when the rank's queues are empty,
	// after PDTimeout otherwise.
	PDQueueAware = memctrl.PDQueueAware
)

// RefreshMode selects the refresh-management strategy.
type RefreshMode = memctrl.RefreshMode

// The refresh-management modes.
const (
	// RefreshAllBank issues conventional all-bank REF every tREFI (the
	// default).
	RefreshAllBank = memctrl.RefreshAllBank
	// RefreshPerBank issues per-bank REFpb on a tREFI/Banks cadence,
	// blocking one bank for tRFCpb instead of the rank for tRFC.
	RefreshPerBank = memctrl.RefreshPerBank
	// RefreshElastic postpones due refreshes while a rank has work and
	// pulls them in before power-down, within the JEDEC 8×tREFI window.
	RefreshElastic = memctrl.RefreshElastic
)

// Calibration scales a finished energy breakdown by per-component
// correction factors, turning every energy figure into a min/nominal/max
// Band (Result.EnergyBand, Result.PowerBandMW). Presets: "none", "vendor",
// "ghose" (the real-device deviations of Ghose et al., arXiv:1807.05102),
// optionally with ":P" percent device-to-device variation appended.
type Calibration = power.Calibration

// Band is a min/nominal/max interval produced by a Calibration.
type Band = power.Band

// Config describes one simulation run; see DefaultConfig.
type Config = sim.Config

// Result carries the metrics of one run, with derived-metric methods
// (AvgPowerMW, EDP, RowHitRate*, GranularityShare, WeightedSpeedup, ...).
type Result = sim.Result

// System is an assembled simulator instance.
type System = sim.System

// Experiment is one regenerable paper artifact (table or figure).
type Experiment = sim.Experiment

// ExpOptions controls experiment budgets.
type ExpOptions = sim.ExpOptions

// ObsConfig selects the telemetry a run carries (Config.Obs): epoch
// time-series recorder and structured event trace. The zero value disables
// both.
type ObsConfig = sim.ObsConfig

// Runner executes experiment simulations with memoization.
type Runner = sim.Runner

// LatComponent indexes one component of a request's latency breakdown
// (Config.LatBreak, DESIGN.md §4h): queue, bank, timing, refresh,
// power-down, alert, transfer.
type LatComponent = memctrl.LatComponent

// NumLatComponents sizes LatBreakdown.
const NumLatComponents = memctrl.NumLatComponents

// LatBreakdown is one latency decomposition in memory cycles, indexed by
// LatComponent; for a completed request (and for the aggregates in
// Result.Ctrl) the components sum exactly to the arrival-to-data latency.
type LatBreakdown = memctrl.LatBreakdown

// LatSpan is one sampled request lifetime (Config.LatSpanEvery /
// System.LatSpans), for trace export.
type LatSpan = memctrl.LatSpan

// ParseScheme resolves a scheme name ("baseline", "fga", "halfdram",
// "pra", "halfdram+pra").
func ParseScheme(name string) (Scheme, error) { return memctrl.ParseScheme(name) }

// ParsePolicy resolves a policy name ("relaxed", "restricted").
func ParsePolicy(name string) (Policy, error) { return memctrl.ParsePolicy(name) }

// ParsePDPolicy resolves a power-down policy name ("immediate", "none",
// "timeout", "queue").
func ParsePDPolicy(name string) (PDPolicy, error) { return memctrl.ParsePDPolicy(name) }

// ParseRefreshMode resolves a refresh mode name ("allbank", "perbank",
// "elastic").
func ParseRefreshMode(name string) (RefreshMode, error) { return memctrl.ParseRefreshMode(name) }

// ParseCalibration resolves a calibration spec: a preset name ("none",
// "vendor", "ghose"), optionally suffixed with ":P" to add ±P% device
// variation (e.g. "ghose:10").
func ParseCalibration(spec string) (Calibration, error) { return power.ParseCalibration(spec) }

// Calibrations lists the calibration preset names.
func Calibrations() []string { return power.Calibrations() }

// DefaultConfig returns the paper's baseline 4-core system running the
// named workload — one of Workloads() (run as four identical instances) or
// Mixes() (Table 4 combinations).
func DefaultConfig(workload string) Config { return sim.DefaultConfig(workload) }

// NewSystem assembles a simulator from a configuration.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// Run builds and runs a configuration.
func Run(cfg Config) (Result, error) { return sim.RunOne(cfg) }

// Workloads lists the eight benchmark models.
func Workloads() []string { return workload.Names() }

// Mixes lists the six multiprogrammed mixes of Table 4.
func Mixes() []string { return workload.MixNames() }

// Hammers lists the adversarial RowHammer workload generators.
func Hammers() []string { return workload.HammerNames() }

// Tensors lists the tensor/conv streaming generators (loop permutations
// with analytically predictable row locality).
func Tensors() []string { return workload.TensorNames() }

// WorkloadSets lists every runnable workload set (benchmarks + hammers +
// tensors + mixes). Custom SPEC-rate-style co-runs compose any of the
// single-core names as "name[:count],..." (e.g. "GUPS:2,LinkedList:2").
func WorkloadSets() []string { return workload.SetNames() }

// Experiments returns the paper's tables and figures in paper order.
func Experiments() []Experiment { return sim.Experiments() }

// ExperimentByID resolves an experiment by id (e.g. "fig12", "table1").
func ExperimentByID(id string) (Experiment, error) { return sim.ExperimentByID(id) }

// NewRunner builds an experiment runner with the given budgets.
func NewRunner(opt ExpOptions) *Runner { return sim.NewRunner(opt) }

// DefaultExpOptions returns the standard experiment budget.
func DefaultExpOptions() ExpOptions { return sim.DefaultExpOptions() }

// BuildInfo returns the version block the binaries publish over the
// introspection server (/vars/build): model version, checkpoint format,
// and the toolchain's module/VCS stamps.
func BuildInfo() map[string]any { return sim.BuildInfo() }
