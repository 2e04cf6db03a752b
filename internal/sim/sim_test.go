package sim

import (
	"testing"

	"pradram/internal/memctrl"
)

func quickCfg(workload string) Config {
	cfg := DefaultConfig(workload)
	cfg.InstrPerCore = 60_000
	return cfg
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if err := DefaultConfig("GUPS").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig("GUPS")
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores must fail")
	}
	bad = DefaultConfig("GUPS")
	bad.InstrPerCore = 0
	if bad.Validate() == nil {
		t.Error("zero instructions must fail")
	}
	bad = DefaultConfig("")
	if bad.Validate() == nil {
		t.Error("empty workload must fail")
	}
	bad = DefaultConfig("GUPS")
	bad.ActiveCores = 9
	if bad.Validate() == nil {
		t.Error("active > total must fail")
	}
	if _, err := New(DefaultConfig("nosuch")); err == nil {
		t.Error("unknown workload must fail at New")
	}
}

func TestMappingFollowsPolicy(t *testing.T) {
	t.Parallel()
	c := DefaultConfig("GUPS")
	if c.ctrlConfig().Mapping != memctrl.RowInterleaved {
		t.Error("relaxed policy pairs with row-interleaved mapping")
	}
	c.Policy = memctrl.RestrictedClose
	if c.ctrlConfig().Mapping != memctrl.LineInterleaved {
		t.Error("restricted policy pairs with line-interleaved mapping")
	}
}

func TestSmokeRunGUPS(t *testing.T) {
	t.Parallel()
	res, err := RunOne(quickCfg("GUPS"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	for i, ipc := range res.CoreIPC {
		if ipc <= 0 || ipc > 8 {
			t.Errorf("core %d IPC = %v out of range", i, ipc)
		}
	}
	if res.Ctrl.ReadsServed == 0 || res.Ctrl.WritesServed == 0 {
		t.Error("GUPS must generate both read and write DRAM traffic")
	}
	if res.Energy.Total() <= 0 {
		t.Error("energy must accrue")
	}
	if res.AvgPowerMW() <= 0 {
		t.Error("average power must be positive")
	}
	// GUPS is random: row hit rates must be very low.
	if hr := res.RowHitRateRead(); hr > 0.15 {
		t.Errorf("GUPS read row-hit rate %.2f, want < 0.15", hr)
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	a, err := RunOne(quickCfg("em3d"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(quickCfg("em3d"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Ctrl != b.Ctrl || a.Energy != b.Energy {
		t.Error("identical configs must produce identical results")
	}
	c := quickCfg("em3d")
	c.Seed = 99
	d, err := RunOne(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles == a.Cycles && d.Ctrl.ReadsServed == a.Ctrl.ReadsServed {
		t.Error("different seeds should diverge")
	}
}

func TestAllSchemesRun(t *testing.T) {
	t.Parallel()
	for _, s := range memctrl.Schemes() {
		cfg := quickCfg("GUPS")
		cfg.InstrPerCore = 30_000
		cfg.Scheme = s
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Ctrl.ReadsServed == 0 {
			t.Errorf("%s: no reads served", s)
		}
	}
}

func TestBothPoliciesRun(t *testing.T) {
	t.Parallel()
	for _, p := range []memctrl.Policy{memctrl.RelaxedClose, memctrl.RestrictedClose} {
		cfg := quickCfg("libquantum")
		cfg.InstrPerCore = 30_000
		cfg.Policy = p
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if p == memctrl.RestrictedClose && res.Ctrl.RowHitRead+res.Ctrl.RowHitWrite > res.Ctrl.Forwarded {
			t.Errorf("restricted close-page must not have DRAM row hits beyond forwards")
		}
	}
}

func TestMixRuns(t *testing.T) {
	t.Parallel()
	cfg := quickCfg("MIX2")
	cfg.InstrPerCore = 30_000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 4 || res.Apps[0] != "mcf" {
		t.Errorf("MIX2 apps = %v", res.Apps)
	}
}

func TestAloneRunSingleCore(t *testing.T) {
	t.Parallel()
	cfg := quickCfg("GUPS")
	cfg.ActiveCores = 1
	cfg.InstrPerCore = 30_000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoreIPC) != 1 {
		t.Fatalf("alone run must have 1 core, got %d", len(res.CoreIPC))
	}
}

func TestPRAUsesPartialActivations(t *testing.T) {
	t.Parallel()
	cfg := quickCfg("GUPS")
	cfg.Scheme = memctrl.PRA
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// GUPS dirties one word per line: its write activations must be 1/8.
	if res.Dev.ActsByGranularity[1] == 0 {
		t.Errorf("PRA on GUPS must produce 1/8 activations, histogram %v", res.Dev.ActsByGranularity)
	}
	if res.Dev.AvgGranularity() >= 8 {
		t.Error("average granularity must drop below 8")
	}
}

func TestPRASavesPowerOnGUPS(t *testing.T) {
	t.Parallel()
	base, err := RunOne(quickCfg("GUPS"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("GUPS")
	cfg.Scheme = memctrl.PRA
	pra, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pra.AvgPowerMW() >= base.AvgPowerMW() {
		t.Errorf("PRA power %.1f mW must be below baseline %.1f mW", pra.AvgPowerMW(), base.AvgPowerMW())
	}
	// Performance must be nearly unchanged (paper: <= ~5% loss).
	if pra.SumIPC() < 0.90*base.SumIPC() {
		t.Errorf("PRA IPC %.3f lost too much vs baseline %.3f", pra.SumIPC(), base.SumIPC())
	}
}

func TestFGALosesPerformance(t *testing.T) {
	t.Parallel()
	base, err := RunOne(quickCfg("libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("libquantum")
	cfg.Scheme = memctrl.FGA
	fga, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// FGA halves bandwidth: a streaming workload must slow down.
	if fga.SumIPC() >= base.SumIPC() {
		t.Errorf("FGA IPC %.3f must be below baseline %.3f on streaming", fga.SumIPC(), base.SumIPC())
	}
}

func TestDBIIncreasesWriteHits(t *testing.T) {
	t.Parallel()
	cfg := quickCfg("em3d")
	cfg.InstrPerCore = 80_000
	base, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DBI = true
	dbi, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dbi.Cache.DBIProactive == 0 {
		t.Error("DBI must produce proactive writebacks")
	}
	if dbi.RowHitRateWrite() <= base.RowHitRateWrite() {
		t.Errorf("DBI write hit rate %.3f must exceed baseline %.3f",
			dbi.RowHitRateWrite(), base.RowHitRateWrite())
	}
}

func TestWeightedSpeedupIdentity(t *testing.T) {
	t.Parallel()
	res := Result{
		Apps:    []string{"a", "b"},
		CoreIPC: []float64{2, 3},
	}
	ws := res.WeightedSpeedup(map[string]float64{"a": 2, "b": 3})
	if ws != 2 {
		t.Errorf("WS = %v, want 2 (each core at its alone IPC)", ws)
	}
	// Missing alone entries contribute nothing rather than exploding.
	if got := res.WeightedSpeedup(map[string]float64{"a": 2}); got != 1 {
		t.Errorf("WS with missing app = %v, want 1", got)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	t.Parallel()
	// libquantum needs the L2 warmed before dirty evictions (DRAM writes)
	// flow at their steady-state rate.
	cfg := quickCfg("libquantum")
	cfg.WarmupPerCore = 300_000
	cfg.InstrPerCore = 150_000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeNs() <= 0 || res.EDP() <= 0 {
		t.Error("runtime and EDP must be positive")
	}
	if s := res.ReadTrafficShare(); s <= 0 || s >= 1 {
		t.Errorf("read traffic share %v out of (0,1)", s)
	}
	var total float64
	for g := 1; g <= 8; g++ {
		total += res.GranularityShare(g)
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("granularity shares sum to %v, want 1", total)
	}
	if res.GranularityShare(0) != 0 || res.GranularityShare(9) != 0 {
		t.Error("out-of-range granularity shares must be 0")
	}
	// libquantum streams: high read row-hit rate expected.
	if hr := res.RowHitRateRead(); hr < 0.4 {
		t.Errorf("libquantum read hit rate %.2f, want > 0.4", hr)
	}
}
