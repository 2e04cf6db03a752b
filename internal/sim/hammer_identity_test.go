package sim

import (
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
)

// Bit-identity matrices for the Alert/RFM mitigation (DESIGN.md §4g),
// extending the two determinism contracts — fast-forwarding and
// checkpoint restore change nothing observable — over the new scheme
// crossed with the adversarial workloads. The mitigation is the hard case
// for both: the alert back-off stalls the command stream on a deadline
// only the triggering ACT knows, and the counter tables plus the RFM FSM
// are state a checkpoint must carry exactly.

// mitIdentityVariants spans the mitigation feature space. Every variant
// arms the threshold the hammer experiment uses; the rest probe the
// interactions most likely to break identity — a back-off long enough to
// cross epoch boundaries, and the alternative refresh modes with and
// without power-down in play (counter resets ride on REF/REFpb/
// self-refresh, and elastic refresh stretches the counting window).
func mitIdentityVariants() []struct {
	name string
	mod  func(*Config)
} {
	arm := func(c *Config) { c.MitThreshold = hammerMitThreshold }
	return []struct {
		name string
		mod  func(*Config)
	}{
		{"alert-rfm", arm},
		{"long-backoff", func(c *Config) { arm(c); c.MitAlertCycles = 600 }},
		{"perbank", func(c *Config) { arm(c); c.RefreshMode = dram.RefPerBank }},
		{"elastic", func(c *Config) {
			arm(c)
			c.RefreshMode = dram.RefElastic
			// Enough four-core traffic that postponed refreshes let one
			// bank's window collect more than 512 distinct rows: the
			// overflow that made a bounded counter table alert on GUPS.
			c.Cores, c.InstrPerCore = 4, 24_000
		}},
		{"elastic-pd", func(c *Config) {
			arm(c)
			c.RefreshMode = dram.RefElastic
			c.PDSlowExit = true
			c.APD = true
		}},
	}
}

// mitBenign names the row-uniform workloads of the matrix: a correct
// defense raises no alert on them at the experiment's threshold.
var mitBenign = map[string]bool{"GUPS": true, "RowStorm": true}

// mitIdentityCells pairs workloads with the variants worth crossing: the
// base alert-rfm cell for every hammer pattern plus the two benign
// controls, and the full variant fan for one aggressive hammer. GUPS also
// runs under elastic refresh, whose postponed REFs hold a bank's counters
// across up to nine refresh intervals: exact counts must still raise no
// alert there.
func mitIdentityCells() []struct {
	workload, variant string
} {
	cells := []struct{ workload, variant string }{
		{"HammerSingle", "alert-rfm"},
		{"HammerDouble", "alert-rfm"},
		{"HammerDecoy", "alert-rfm"},
		{"RowStorm", "alert-rfm"},
		{"GUPS", "alert-rfm"},
		{"GUPS", "elastic"},
		{"HammerSingle", "long-backoff"},
		{"HammerSingle", "perbank"},
		{"HammerSingle", "elastic-pd"},
	}
	return cells
}

// checkMitAlerts requires every hammer cell to have engaged the
// mitigation (so no identity cell passes vacuously) and every benign cell
// to have raised no alert.
func checkMitAlerts(t *testing.T, workload string, res Result) {
	t.Helper()
	switch {
	case mitBenign[workload] && res.Ctrl.Alerts != 0:
		t.Errorf("benign %s raised %d alerts at threshold %d", workload, res.Ctrl.Alerts, hammerMitThreshold)
	case !mitBenign[workload] && res.Ctrl.Alerts == 0:
		t.Error("hammer cell raised no alerts; the mitigation identity check is vacuous")
	}
}

func mitVariantByName(t *testing.T, name string) func(*Config) {
	t.Helper()
	for _, v := range mitIdentityVariants() {
		if v.name == name {
			return v.mod
		}
	}
	t.Fatalf("unknown mitigation variant %q", name)
	return nil
}

// TestMitigationSkipBitIdentityMatrix: a fast-forwarded run under active
// mitigation must match a per-cycle run bit for bit. The hammer cells
// additionally prove the mitigation engaged (alerts > 0), so no cell
// passes vacuously, and the benign cells that it did not (alerts == 0).
func TestMitigationSkipBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	cells := mitIdentityCells()
	if testing.Short() {
		// The two cells with the most moving parts: benign traffic under
		// the longest counting windows, and mitigation crossed with the
		// power-down/elastic-refresh FSMs.
		cells = []struct{ workload, variant string }{
			{"GUPS", "elastic"},
			{"HammerSingle", "elastic-pd"},
		}
	}
	for _, sch := range []memctrl.Scheme{memctrl.Baseline, memctrl.PRA} {
		for _, cell := range cells {
			sch, cell := sch, cell
			t.Run(cell.workload+"/"+sch.String()+"/"+cell.variant, func(t *testing.T) {
				t.Parallel()
				cfg := skipCfg(cell.workload)
				cfg.Scheme = sch
				mitVariantByName(t, cell.variant)(&cfg)
				skip, noskip, rs, rn := runBoth(t, cfg)
				checkIdentical(t, skip, noskip, rs, rn)
				checkMitAlerts(t, cell.workload, rs)
			})
		}
	}
}

// TestMitigationCheckpointBitIdentityMatrix: warmup → checkpoint →
// restore → measure must equal a monolithic run for every mitigation
// cell. This is what proves the per-row counter tables and the alert/RFM
// FSM fields serialize completely — a missed field surfaces as a
// post-restore divergence.
func TestMitigationCheckpointBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	cells := mitIdentityCells()
	if testing.Short() {
		cells = cells[:1]
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.workload+"/"+cell.variant, func(t *testing.T) {
			t.Parallel()
			cfg := skipCfg(cell.workload)
			cfg.Scheme = memctrl.PRA
			mitVariantByName(t, cell.variant)(&cfg)

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
			checkMitAlerts(t, cell.workload, rm)
		})
	}
}
