package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/power"
	"pradram/internal/stats"
	"pradram/internal/workload"
)

// ExpOptions controls experiment runs. The defaults trade runtime for
// fidelity; the paper's 200M-instruction regions are replaced by a warmed-up
// steady-state window (see DESIGN.md §5).
type ExpOptions struct {
	Instr  int64  // measured instructions per core
	Warmup int64  // warmup instructions per core before stats reset
	Seed   uint64 // workload seed

	// Workers bounds how many simulations execute concurrently when the
	// runner precomputes a key set; 0 means runtime.GOMAXPROCS(0). Each
	// RunOne is a pure function of its configuration, so the worker count
	// changes wall-clock only, never results (enforced by determinism_test.go).
	Workers int

	// Progress, when non-nil, receives run-level progress (total / done /
	// in-flight) as the runner executes a wave (Precompute) — the live feed
	// behind praexp's stderr progress line and its -http introspection
	// endpoint. Nil-safe: a nil *obs.Progress records nothing.
	Progress *obs.Progress

	// NoSkip disables event-driven cycle skipping on every run the runner
	// launches (praexp -noskip). Results are bit-identical either way
	// (enforced by the determinism suite).
	NoSkip bool
}

// DefaultExpOptions returns the standard experiment budget.
func DefaultExpOptions() ExpOptions {
	return ExpOptions{Instr: 400_000, Warmup: 400_000, Seed: 1}
}

// Validate reports a budget or pool size that is not what the caller can
// have meant, naming the field. NewRunner itself is lenient (it substitutes
// the defaults), so a front end that takes these from a user checks first.
func (o ExpOptions) Validate() error {
	switch {
	case o.Instr < 0:
		return fmt.Errorf("sim: ExpOptions.Instr must be non-negative (0 = default), got %d", o.Instr)
	case o.Warmup < 0:
		return fmt.Errorf("sim: ExpOptions.Warmup must be non-negative, got %d", o.Warmup)
	case o.Workers < 0:
		return fmt.Errorf("sim: ExpOptions.Workers must be non-negative (0 = GOMAXPROCS), got %d", o.Workers)
	}
	return nil
}

// Runner executes simulation runs with memoization, so experiments that
// share configurations (Figures 12 and 13 use the same runs) pay once.
// It is safe for concurrent use: duplicate in-flight requests for one key
// are deduplicated (memo.go), so a key simulates exactly once no matter how
// many goroutines ask for it.
type Runner struct {
	opt ExpOptions

	results memo[Result] // by runKey.String()

	sims atomic.Int64 // simulations actually executed
}

// NewRunner builds a runner; results are cached inside it for the
// runner's lifetime.
func NewRunner(opt ExpOptions) *Runner {
	if opt.Instr <= 0 {
		opt.Instr = DefaultExpOptions().Instr
	}
	if opt.Warmup < 0 {
		opt.Warmup = 0
	}
	return &Runner{opt: opt}
}

// Simulations returns how many simulations this runner actually executed
// (memo hits excluded).
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// CheckpointHits is always 0: the Runner restores no warmups, every run
// warms itself. It is kept only for bench/layers.go until ROADMAP 3(b).
func (r *Runner) CheckpointHits() int64 { return 0 }

// runKey identifies one memoized simulation: a workload under a set of
// controller knobs, plus the few run-level settings experiments vary.
type runKey struct {
	workload string
	memctrl.Knobs
	dbi    bool
	active int

	// What the parameter sweeps vary (sensitivity.go). A non-zero synthetic
	// runs that microbenchmark on every core, workload then only labelling
	// the run; grade names a dram.SpeedGrades bin ("" keeps DDR3-1600);
	// sweep selects the sweeps' budget rule (Runner.config).
	synthetic workload.SyntheticParams
	grade     string
	sweep     bool
}

// newKey is the common case: a workload under a scheme and policy, every
// other knob at its default.
func newKey(workload string, s memctrl.Scheme, p memctrl.Policy, active int) runKey {
	return runKey{workload: workload, Knobs: memctrl.Knobs{Scheme: s, Policy: p}, active: active}
}

// String is the memo key, and the name a failed run's error reports; its
// spelling is pinned with every experiment's run set (testdata/runkeys.golden).
// Every group past the first only grows a suffix when one of its fields is
// set, so historical keys for default runs are unchanged, and each renders
// its fields in declaration order. ECC and LatSpanEvery are not rendered: no
// experiment varies them.
func (k runKey) String() string {
	s := fmt.Sprintf("%s/%v/%v/dbi=%v/active=%d/abl=%v%v%v",
		k.workload, k.Scheme, k.Policy, k.dbi, k.active, k.NoTimingRelax, k.NoPartialIO, k.NoMaskCycle)
	if k.LowPower != (memctrl.LowPower{}) {
		s += fmt.Sprintf("/pd=%v,%d,%d,slow=%v,apd=%v,ref=%v", fieldsOf(k.LowPower)...)
	}
	if k.Mitigation != (memctrl.Mitigation{}) {
		s += fmt.Sprintf("/mit=%d,%d", fieldsOf(k.Mitigation)...)
	}
	if k.LatBreak {
		s += "/latbreak"
	}
	if k.synthetic != (workload.SyntheticParams{}) {
		s += fmt.Sprintf("/syn=%d,%v,%v,%d,%d", fieldsOf(k.synthetic)...)
	}
	if k.grade != "" {
		s += "/grade=" + k.grade
	}
	if k.sweep {
		s += "/sweep"
	}
	return s
}

// fieldsOf returns a struct's field values in declaration order.
func fieldsOf(v any) []any {
	rv := reflect.ValueOf(v)
	out := make([]any, rv.NumField())
	for i := range out {
		out[i] = rv.Field(i).Interface()
	}
	return out
}

// Run executes (or recalls) one configuration. Concurrent callers are
// safe: the first requester of a key simulates it while later ones block
// on the same in-flight run and share its result.
func (r *Runner) Run(k runKey) (Result, error) {
	key := k.String()
	return r.results.do(key, func() (Result, error) { return r.execute(k, key) })
}

// config expands a run key into the full simulation configuration under
// the runner's budget.
func (r *Runner) config(k runKey) (Config, error) {
	cfg := DefaultConfig(k.workload)
	cfg.Knobs = k.Knobs
	cfg.DBI = k.dbi
	cfg.ActiveCores = k.active
	cfg.InstrPerCore = r.opt.Instr
	cfg.WarmupPerCore = r.opt.Warmup
	if k.active > 1 {
		// The warmup budget exists to fill the shared L2 so dirty
		// evictions flow at steady state; n active cores fill it n times
		// faster, so scale the per-core budget down accordingly.
		cfg.WarmupPerCore = r.opt.Warmup / int64(k.active)
	}
	if k.sweep {
		// Many points, read as ratios: half the measured budget (floored,
		// so tiny budgets still reach steady state) after twice that warmup.
		cfg.InstrPerCore = max(r.opt.Instr/2, 20_000)
		cfg.WarmupPerCore = 2 * cfg.InstrPerCore
	}
	if k.synthetic != (workload.SyntheticParams{}) {
		mk, err := workload.NewSynthetic(k.synthetic)
		if err != nil {
			return cfg, err
		}
		cfg.Generator = mk
	}
	if k.grade != "" {
		g, ok := dram.SpeedGradeByName(k.grade)
		if !ok {
			return cfg, fmt.Errorf("sim: unknown speed grade %q", k.grade)
		}
		cfg.Timing = &g.Timing
	}
	if k.active == 1 && cfg.WarmupPerCore > functionalWarmMin {
		// One core warms wholly functionally; four cores stay detailed
		// (DESIGN.md §5.2).
		cfg.FunctionalWarmupPerCore = cfg.WarmupPerCore
		cfg.WarmupPerCore = 0
	}
	cfg.Seed = r.opt.Seed
	cfg.NoSkip = r.opt.NoSkip
	return cfg, nil
}

// functionalWarmMin bounds the single-core warmups the Runner makes
// functional: warmups of at most this many instructions, those of the
// tiny-budget goldens, stay detailed (ROADMAP 19(d)).
const functionalWarmMin = 50_000

// execute resolves one memo miss by simulating it.
func (r *Runner) execute(k runKey, key string) (Result, error) {
	cfg, err := r.config(k)
	var res Result
	if err == nil {
		res, err = RunOne(cfg)
	}
	if err != nil {
		return Result{}, fmt.Errorf("run %s: %w", key, err)
	}
	r.sims.Add(1)
	return res, nil
}

// aloneKey is the Equation 3 denominator run: one application alone on the
// system under the baseline scheme with the given policy.
func aloneKey(app string, policy memctrl.Policy) runKey {
	return newKey(app, memctrl.Baseline, policy, 1)
}

// AloneIPC returns the IPC of one application running alone (aloneKey),
// simulating it if the runner has not yet.
func (r *Runner) AloneIPC(app string, policy memctrl.Policy) (float64, error) {
	res, err := r.Run(aloneKey(app, policy))
	if err != nil {
		return 0, err
	}
	return res.CoreIPC[0], nil
}

// runSet is all a formatter sees of the simulator. An experiment's
// formatter runs twice on one: first in the declaration pass (runs), where
// get records each run it is asked for and returns a zero Result, then on
// the finished results of exactly those runs. It cannot start a simulation,
// and get cannot fail for a declared key.
type runSet struct {
	exp  string            // experiment id, for undeclaredRead
	res  map[string]Result // by runKey.String()
	read *[]runKey         // non-nil in the declaration pass: the runs read
}

// undeclaredRead is the panic a formatter raises by reading a run its
// declaration pass did not — one whose reads depend on result values, a bug
// in that formatter, never an input — and the error RunExperiment turns it
// into.
type undeclaredRead struct{ error }

// get returns the result of a declared run; in the declaration pass it
// records k and returns a zero Result.
func (s runSet) get(k runKey) Result {
	if s.read != nil {
		*s.read = append(*s.read, k)
		return Result{}
	}
	res, ok := s.res[k.String()]
	if !ok {
		panic(undeclaredRead{fmt.Errorf("sim: experiment %s read run %s, which its declaration pass did not read", s.exp, k)})
	}
	return res
}

// normalizedWS returns workload w's WS(res) / WS(base) with shared alone-IPC
// denominators ("normalized performance" in the paper). The apps come from
// w's name rather than from res, so the declaration pass reads the same
// alone runs as the real one.
func (s runSet) normalizedWS(w string, res, base Result, policy memctrl.Policy) float64 {
	apps, _ := workload.Set(w, DefaultConfig(w).Cores)
	alone := make(map[string]float64)
	for _, app := range apps {
		alone[app] = s.get(aloneKey(app, policy)).SumIPC() // one active core
	}
	return stats.Ratio(res.WeightedSpeedup(alone), base.WeightedSpeedup(alone))
}

// Experiment is one regenerable paper artifact: the formatter that turns
// the results of its runs into its table. The runs are the ones the
// formatter reads (Experiment.runs); the analytic experiments read none.
type Experiment struct {
	ID    string
	Title string

	format func(runSet) (string, error)
}

// runs is the declaration pass: the runs e's formatter reads when every
// result is zero, in reading order, duplicates included.
func (e Experiment) runs() []runKey {
	var keys []runKey
	_, _ = e.format(runSet{exp: e.ID, read: &keys}) // a table of zeros; the real pass reports any error
	return keys
}

// Experiments returns every experiment in paper order, the scoreboard last.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: memory characteristics of the benchmarks", ExpTable1},
		{"table2", "Table 2: DRAM die area and activation energy breakdown", ExpTable2},
		{"table3", "Table 3: derived activation power at each granularity (Eq. 1/2)", ExpTable3},
		{"fig2", "Figure 2: baseline DRAM power consumption breakdown", ExpFig2},
		{"fig3", "Figure 3: dirty words per cache line at LLC eviction", ExpFig3},
		{"fig9", "Figure 9: activation energy vs number of MATs activated", ExpFig9},
		{"fig10", "Figure 10: PRA impact on row-buffer hit rates (false hits)", ExpFig10},
		{"fig11", "Figure 11: proportion of row-activation granularities under PRA", ExpFig11},
		{"fig12", "Figure 12: normalized DRAM activation/IO/total power (FGA, Half-DRAM, PRA)", ExpFig12},
		{"fig13", "Figure 13: normalized performance, DRAM energy, EDP", ExpFig13},
		{"fig14", "Figure 14: Half-DRAM + PRA combination (restricted close-page)", ExpFig14},
		{"fig15", "Figure 15: DBI + PRA combination", ExpFig15},
		{"sec3cov", "Section 3: PRA vs SDS coverage (activation vs chip-access granularity)", ExpSec3Coverage},
		{"ablation", "Ablation: contribution of each PRA design element", ExpAblation},
		{"sensitivity", "Sensitivity: PRA savings vs dirty words per line and write share", ExpSensitivity},
		{"speedgrades", "Speed grades: PRA savings across DDR3 data rates", ExpSpeedGrades},
		{"pdsweep", "Power-down & refresh management: policy sweep (residency, energy)", ExpPDSweep},
		{"powerband", "Calibrated power bands: min/nominal/max under each correction set", ExpPowerBand},
		{"hammer", "RowHammer mitigation overhead: Alert/RFM under attack, PRA on/off", ExpHammer},
		{"latbreak", "Latency attribution: per-component read-latency breakdown and tail percentiles", ExpLatBreak},
		{"tensor", "Tensor loop permutations: analytic vs measured activation rate, locality vs power", ExpTensor},
		{"scoreboard", "Scoreboard: each paper target, its measured value, band and verdict", ExpScoreboard},
	}
}

// ExperimentByID resolves an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("sim: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// --- analytic experiments (no simulation) ---

// ExpTable2 reproduces Table 2 from the MAT energy and die-area models.
func ExpTable2(runSet) (string, error) {
	m := power.DefaultMATEnergy()
	a := power.DefaultDieArea()
	var b strings.Builder
	t := stats.NewTable("area component", "mm^2")
	t.Row("DRAM cell", a.DRAMCell)
	t.Row("Sense amplifier", a.SenseAmplifier)
	t.Row("Row predecoder", a.RowPredecoder)
	t.Row("Local wordline driver", a.LocalWordlineDriver)
	t.Row("Total chip area (incl. periphery)", a.TotalChip)
	b.WriteString(t.String())
	b.WriteString("\n")
	e := stats.NewTable("energy component", "pJ")
	e.Row("Local bitline (per MAT)", m.LocalBitline)
	e.Row("Local sense amplifier (per MAT)", m.LocalSenseAmp)
	e.Row("Local wordline (per MAT)", m.LocalWordline)
	e.Row("Row decoder (per MAT)", m.RowDecoder)
	e.Row("Total per MAT", m.PerMAT())
	e.Row("Row activation bus (per bank)", m.ActivationBus)
	e.Row("Row predecoder (per bank)", m.RowPredecoder)
	e.Row("Total row activation energy per bank", m.FullEnergy())
	b.WriteString(e.String())
	fmt.Fprintf(&b, "\nPRA overheads (Section 4.2): latch %.2f um^2 (%.2f%% die), %.1f uW/ACT (%.3f%% of ACT power), wordline gates ~%.0f%% die area\n",
		a.PRALatchAreaUm2, a.PRALatchAreaPct, a.PRALatchPowerUW, a.PRALatchPowerPct, a.WordlineGateAreaPct)
	fmt.Fprintf(&b, "Paper reference: per-MAT 16.921 pJ, shared 18.016 pJ, per-bank 288.752 pJ\n")
	return b.String(), nil
}

// ExpTable3 reproduces the derived Table 3 power block: Equations 1 and 2
// plus the MAT-scaled activation power series.
func ExpTable3(runSet) (string, error) {
	idd := power.DefaultIDD()
	chip := power.DefaultChipPowers()
	mat := power.DefaultMATEnergy()
	tm := dram.DefaultTiming()
	var b strings.Builder
	fmt.Fprintf(&b, "Equation 1/2: I_ACT = IDD0 - (IDD3N*tRAS + IDD2N*(tRC-tRAS))/tRC\n")
	fmt.Fprintf(&b, "  IDD0=%.0fmA IDD3N=%.0fmA IDD2N=%.0fmA VDD=%.1fV tRAS=%dck tRC=%dck\n",
		idd.IDD0, idd.IDD3N, idd.IDD2N, idd.VDD, tm.TRAS, tm.TRC)
	fmt.Fprintf(&b, "  => P_ACT(full) = %.2f mW (paper: 22.2)\n\n",
		idd.ActPower(float64(tm.TRAS)*tm.Rate.TCKNs(), float64(tm.TRC)*tm.Rate.TCKNs()))
	t := stats.NewTable("granularity", "P_ACT derived (mW)", "P_ACT published (mW)", "scale")
	for g := 8; g >= 1; g-- {
		scale := mat.ScaleGranularity(g, false)
		t.Row(fmt.Sprintf("%d/8 row", g), chip.Act[7]*scale, chip.Act[g-1], scale)
	}
	b.WriteString(t.String())
	b.WriteString("\nStatic powers (mW/chip): ")
	fmt.Fprintf(&b, "PRE_STBY %.0f, PRE_PDN %.0f, REF %.0f, ACT_STBY %.0f, RD %.0f, WR %.0f, RD I/O %.1f, WR ODT %.1f, RD/WR TERM %.1f/%.1f\n",
		chip.PreStby, chip.PrePdn, chip.Ref, chip.ActStby, chip.Rd, chip.Wr, chip.RdIO, chip.WrODT, chip.RdTerm, chip.WrTerm)
	return b.String(), nil
}

// ExpFig9 reproduces the Figure 9 sweep: activation energy vs MATs.
func ExpFig9(runSet) (string, error) {
	m := power.DefaultMATEnergy()
	t := stats.NewTable("MATs activated", "energy (pJ)", "vs full row")
	for n := 16; n >= 2; n -= 2 {
		t.Row(n, m.EnergyMATs(n), m.Scale(n))
	}
	return t.String() + "\nNote: halving MATs does not halve energy — the activation bus and row\npredecoder are shared across the sub-array (the Figure 9 observation).\n",
		nil
}

// benchOrder is the paper's presentation order for the 8 benchmarks.
var benchOrder = []string{"bzip2", "lbm", "libquantum", "mcf", "omnetpp", "em3d", "GUPS", "LinkedList"}

// workloadOrder is the 14-workload set of the evaluation (Figures 10-15).
func workloadOrder() []string {
	return append(append([]string{}, benchOrder...), workload.MixNames()...)
}
