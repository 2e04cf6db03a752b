package sim

import (
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
)

// pdIdentityVariants spans the power-management feature space for the
// bit-identity matrices below: every entry policy, the slow-exit and APD
// toggles (APD under each row-buffer policy), self-refresh, and both
// alternative refresh modes. Each variant
// must preserve the two determinism contracts this repo guarantees —
// fast-forwarding and checkpoint restore change nothing observable.
func pdIdentityVariants() []struct {
	name string
	mod  func(*Config)
} {
	return []struct {
		name string
		mod  func(*Config)
	}{
		{"no-pd", func(c *Config) { c.PDPolicy = memctrl.PDNone }},
		{"immediate", func(c *Config) { c.PDPolicy = memctrl.PDImmediate }},
		{"imm-slow-apd", func(c *Config) { c.PDSlowExit = true; c.APD = true }},
		{"timeout", func(c *Config) { c.PDPolicy = memctrl.PDTimed; c.PDTimeout = 64 }},
		{"queue", func(c *Config) { c.PDPolicy = memctrl.PDQueueAware; c.PDTimeout = 64 }},
		{"selfref", func(c *Config) { c.SRTimeout = 512 }},
		{"perbank", func(c *Config) { c.RefreshMode = dram.RefPerBank }},
		{"elastic", func(c *Config) { c.RefreshMode = dram.RefElastic }},
		{"restricted-apd", func(c *Config) { c.Policy = memctrl.RestrictedClose; c.APD = true }},
		{"openpage-apd", func(c *Config) { c.Policy = memctrl.OpenPage; c.APD = true }},
	}
}

// checkAPDSplit pins where active power-down engages: only open-page leaves
// rows open on an idle rank, so with APD on a run spends active power-down
// cycles under open-page and none under either close-page policy.
func checkAPDSplit(t *testing.T, cfg Config, r Result) {
	t.Helper()
	if cfg.APD && (r.Dev.ActivePDCycles > 0) != (cfg.Policy == memctrl.OpenPage) {
		t.Errorf("APD under %v: %d active power-down rank-cycles", cfg.Policy, r.Dev.ActivePDCycles)
	}
}

// TestPDSkipBitIdentityMatrix extends the fast-forwarding bit-identity
// contract to the power-down FSM: for every power-management variant
// crossed with both activation schemes, a skipping run must match a
// per-cycle run on the Result struct, the epoch timeline, and the event
// log. The power-down machinery is the hard case for cycle skipping —
// entry decisions depend on per-rank idle clocks and wake-ups on FSM exit
// latencies, all of which must feed the nextWake lower bound without ever
// reading state that differs between the two execution modes.
func TestPDSkipBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Keep a reduced matrix even under -short: the two variants that
		// exercise the most FSM states.
		short := pdIdentityVariants()
		pdShort := []struct {
			name string
			mod  func(*Config)
		}{short[2], short[5]}
		for _, v := range pdShort {
			v := v
			t.Run("GUPS/Baseline/"+v.name, func(t *testing.T) {
				t.Parallel()
				cfg := skipCfg("GUPS")
				v.mod(&cfg)
				skip, noskip, rs, rn := runBoth(t, cfg)
				checkIdentical(t, skip, noskip, rs, rn)
				checkAPDSplit(t, cfg, rs)
			})
		}
		return
	}
	for _, sch := range []memctrl.Scheme{memctrl.Baseline, memctrl.PRA} {
		for _, wl := range []string{"GUPS", "bzip2"} {
			for _, v := range pdIdentityVariants() {
				sch, wl, v := sch, wl, v
				t.Run(wl+"/"+sch.String()+"/"+v.name, func(t *testing.T) {
					t.Parallel()
					cfg := skipCfg(wl)
					cfg.Scheme = sch
					v.mod(&cfg)
					skip, noskip, rs, rn := runBoth(t, cfg)
					checkIdentical(t, skip, noskip, rs, rn)
					checkAPDSplit(t, cfg, rs)
					if wl != "bzip2" && skip.cycle == skip.ticks {
						t.Error("skip run never fast-forwarded; matrix cell is vacuous")
					}
				})
			}
		}
	}
}

// TestPDCheckpointBitIdentityMatrix extends the checkpoint bit-identity
// contract the same way: warmup → checkpoint → restore into a fresh system
// → measure must equal a monolithic Run for every power-management
// variant. This is what proves the new FSM rank fields and the
// controller's per-rank idle clocks are fully captured by SaveState — a
// missed field would surface here as a post-restore divergence.
func TestPDCheckpointBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	variants := pdIdentityVariants()
	if testing.Short() {
		variants = variants[2:3] // slow-exit + APD touches the most state
	}
	for _, v := range variants {
		v := v
		t.Run("GUPS/"+v.name, func(t *testing.T) {
			t.Parallel()
			cfg := skipCfg("GUPS")
			cfg.Scheme = memctrl.PRA
			v.mod(&cfg)

			mono, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := mono.Run()
			if err != nil {
				t.Fatal(err)
			}
			data := warmAndCheckpoint(t, cfg)
			restored, rr := restoreAndMeasure(t, cfg, data)
			checkIdentical(t, mono, restored, rm, rr)
		})
	}
}
