package memctrl

import "fmt"

// Knobs is the part of a controller configuration a run chooses and every
// layer above the controller forwards unchanged. It is declared once, here,
// and embedded in Config, in sim.Config and in the experiment run key, so a
// knob is one field: the layers reach it through field promotion
// (cfg.Scheme, cfg.PDTimeout) and hand the whole struct down with one
// assignment. The zero value is the paper's baseline system. Adding a knob
// means adding the field here and its row in sim's flag table.
type Knobs struct {
	Scheme Scheme
	Policy Policy

	// ECC models an x72 DIMM: a ninth chip per rank stores ECC codes with
	// its PRA pin tied high (Section 4.2) — it always fully activates and
	// always transfers, while the eight data chips keep their partial-
	// activation savings. Timing is unchanged; only energy accounting
	// differs.
	ECC bool

	// Ablation knobs (all off = full PRA as published): each disables one
	// PRA design element to isolate its contribution.
	NoTimingRelax bool // partial ACTs charge full tRRD/tFAW weight
	NoPartialIO   bool // writes drive all 8 words even under PRA masks
	NoMaskCycle   bool // the PRA mask transfer costs no extra cycle

	LowPower
	Mitigation

	// LatBreak enables per-request latency attribution (DESIGN.md §4h):
	// every request's arrival-to-data latency is decomposed cycle-exactly
	// into queue / bank / timing / refresh / power-down / alert / transfer
	// components, with percentile histograms and span sampling. Attribution
	// observes scheduling without influencing it: with LatBreak off the
	// per-request cost is one int64 assignment and simulated results are
	// bit-identical either way.
	LatBreak bool
	// LatSpanEvery samples every Nth completed request into the span ring
	// for trace export (0 disables sampling; only meaningful with
	// LatBreak).
	LatSpanEvery int
}

// LowPower is the power-down and refresh management (DESIGN.md §4f). The
// zero value reproduces the pre-FSM behavior: immediate fast-exit precharge
// power-down for idle ranks, no active power-down, no self-refresh,
// conventional all-bank refresh.
type LowPower struct {
	PDPolicy PDPolicy // when idle ranks drop CKE
	// Idle memory cycles before PDTimed/PDQueueAware entry.
	PDTimeout int64
	// Idle memory cycles before a rank escalates to self-refresh (0 =
	// never). Independent of PDPolicy: a rank already in precharge
	// power-down is woken (paying the exit latency) so the self-refresh
	// entry command can issue.
	SRTimeout int64
	// Slow-exit (DLL-off) precharge power-down: lower background power,
	// tXPDLL instead of tXP on exit.
	PDSlowExit bool
	// APD allows active power-down for idle ranks with open rows (only
	// reachable under the open-page policy, which keeps rows open with no
	// queued beneficiary).
	APD bool
	// RefreshMode selects all-bank, per-bank, or elastic (postpone and
	// pull-in within the JEDEC 8x tREFI window) refresh management.
	RefreshMode RefreshMode
}

// Mitigation is the RowHammer defence (DESIGN.md §4g): PRAC-style per-row
// activation counting with Alert/RFM back-off, orthogonal to Scheme (any
// scheme can run with or without it).
type Mitigation struct {
	// MitThreshold == 0 disables everything: no counter table is allocated
	// and results are bit-identical to a build without the feature. When a
	// row's activation count since its bank's last refresh reaches the
	// threshold, the device raises an alert: the channel's command stream
	// stalls for MitAlertCycles (the ALERT_n back-off real PRAC devices
	// enforce), after which the controller issues an RFM command to the
	// offending bank (precharging it first if needed) that refreshes the
	// highest-count row's victims and clears its counter. 1 is rejected:
	// every activation would alert, and its own RFM would close the row
	// before the column command it was opened for.
	MitThreshold int
	// MitAlertCycles is the alert back-off in memory cycles before the
	// RFM may issue (0 selects the default 144 cycles = 180ns, the
	// per-alert overhead measured on real PRAC parts).
	MitAlertCycles int64
	// Capacity of the per-bank counter table in rows (0 selects the
	// default 512). Overflow falls back to a Misra-Gries spill floor that
	// may overcount but never undercounts a row (dram/rowcounter.go).
	MitTableCap int
}

// ConfigFor returns the paper's Table 3 memory system running under k, with
// the paper's pairing of address mapping to policy: row-interleaved for the
// relaxed close-page (and open-page) policy, line-interleaved for
// restricted close-page (Section 5.1.2).
func ConfigFor(k Knobs) Config {
	c := DefaultConfig()
	c.Knobs = k
	if k.Policy == RestrictedClose {
		c.Mapping = LineInterleaved
	}
	return c
}

// Validate reports the first knob, or combination of knobs, the controller
// cannot run under, by field name.
func (k Knobs) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"PDTimeout", k.PDTimeout}, {"SRTimeout", k.SRTimeout},
		{"MitThreshold", int64(k.MitThreshold)}, {"MitAlertCycles", k.MitAlertCycles},
		{"MitTableCap", int64(k.MitTableCap)}, {"LatSpanEvery", int64(k.LatSpanEvery)},
	} {
		if f.v < 0 {
			return fmt.Errorf("memctrl: %s must be non-negative, got %d", f.name, f.v)
		}
	}
	switch {
	case k.Scheme < Baseline || k.Scheme > SDS:
		return fmt.Errorf("memctrl: unknown Scheme %d", k.Scheme)
	case k.Policy < RelaxedClose || k.Policy > OpenPage:
		return fmt.Errorf("memctrl: unknown Policy %d", k.Policy)
	case k.PDPolicy > PDQueueAware:
		return fmt.Errorf("memctrl: unknown PDPolicy %d", k.PDPolicy)
	case k.RefreshMode > RefreshElastic:
		return fmt.Errorf("memctrl: unknown RefreshMode %d", k.RefreshMode)
	case (k.PDPolicy == PDTimed || k.PDPolicy == PDQueueAware) && k.PDTimeout == 0:
		return fmt.Errorf("memctrl: PDPolicy %v requires PDTimeout > 0", k.PDPolicy)
	case k.MitThreshold == 1:
		return fmt.Errorf("memctrl: MitThreshold must be 0 (off) or ≥ 2: the activation that raises the alert is closed by its own RFM before its column command")
	}
	return nil
}
