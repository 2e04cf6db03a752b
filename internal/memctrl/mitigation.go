package memctrl

import (
	"cmp"
	"fmt"

	"pradram/internal/obs"
)

// RowHammer mitigation (DESIGN.md §4g): a PRAC-style Alert/RFM scheme
// layered on the per-row activation counters the dram package maintains
// (dram/rowcounter.go). The flow mirrors how real PRAC devices behave:
//
//  1. Every activation bumps its row's counter inside the device; the
//     counters are windowed by refresh (a refresh of a row's bank clears
//     them — the disturbance accumulated so far is healed).
//  2. When an activation pushes a row's count to the configured threshold,
//     the device raises ALERT_n. The controller must back off: the whole
//     channel's command stream stalls for MitAlertCycles. Refresh is the
//     one exception — it keeps its priority so mitigation can never push a
//     rank past its retention deadline.
//  3. After the back-off the controller issues an RFM (refresh management)
//     command to the offending bank — precharging it first if a row is
//     open, exactly like a per-bank refresh — which refreshes the
//     neighbors of the bank's hottest tracked row and clears its counter.
//
// The scheme is orthogonal to the PRA/FGA/DBI/SDS activation schemes and
// to the power-down policies; MitThreshold == 0 disables it entirely, in
// which case no counter table exists and simulation results are
// bit-identical to a controller built without this file.

// Default mitigation parameters (used when the corresponding Config field
// is zero and MitThreshold > 0).
const (
	// DefaultMitAlertCycles is the default alert back-off: 144 memory
	// cycles = 180 ns at DDR3-1600, the order of the per-ALERT overhead
	// PRAC DDR5 devices impose.
	DefaultMitAlertCycles = 144
	// DefaultMitTableCap is the default per-bank counter-table capacity.
	// 512 tracked rows out of 32K keeps the table at SRAM-feasible size
	// while the Misra-Gries spill floor bounds the undercount to zero.
	DefaultMitTableCap = 512
)

// mitAlertCycles returns the effective alert back-off (Validate rejects
// negative values, so zero is the only "unset").
func (c Config) mitAlertCycles() int64 { return cmp.Or(c.MitAlertCycles, DefaultMitAlertCycles) }

// mitTableCap returns the effective per-bank counter-table capacity.
func (c Config) mitTableCap() int { return cmp.Or(c.MitTableCap, DefaultMitTableCap) }

// RowActCount reports channel ch's tracked activation count for a row
// since its bank's last refresh (the spill floor for untracked rows, 0
// when mitigation is off). Exposed for the analytic-oracle tests.
func (c *Controller) RowActCount(ch, r, b, row int) int64 {
	return c.chans[ch].ch.RowActCount(r, b, row)
}

// RowCounts returns a copy of channel ch's tracked row→count table for
// one bank (nil when mitigation is off).
func (c *Controller) RowCounts(ch, r, b int) map[int]int64 {
	return c.chans[ch].ch.RowCounts(r, b)
}

// RowSpill reports channel ch's Misra-Gries spill floor for one bank.
func (c *Controller) RowSpill(ch, r, b int) int64 {
	return c.chans[ch].ch.RowSpill(r, b)
}

// mitOnAct runs after every successful activation: if mitigation is armed
// and the activated row's count has reached the threshold, raise the alert.
// The stall cost is accounted analytically here (MitAlertCycles per alert,
// by construction of the schedule gate), so skip and noskip runs agree on
// it without counting idle ticks.
func (cc *chanCtl) mitOnAct(mem int64, l Loc) {
	if cc.cfg.MitThreshold <= 0 || cc.rfmPending {
		// While an alert is in flight no activations can issue (the gate
		// in schedule blocks them), so rfmPending is impossible here; the
		// check is defensive.
		return
	}
	if cc.ch.RowActCount(l.Rank, l.Bank, l.Row) < int64(cc.cfg.MitThreshold) {
		return
	}
	cc.rfmPending = true
	cc.rfmRank, cc.rfmBank = l.Rank, l.Bank
	cc.alertUntil = mem + cc.cfg.mitAlertCycles()
	cc.stats.Alerts++
	cc.stats.AlertStallCycles += cc.cfg.mitAlertCycles()
	if cc.ev.Enabled(obs.LevelState) {
		cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
			Kind: "alert", Detail: fmt.Sprintf("rank %d bank %d row %d hit threshold %d, back-off %d",
				l.Rank, l.Bank, l.Row, cc.cfg.MitThreshold, cc.cfg.mitAlertCycles())})
	}
}

// issueRFM drives a pending alert to completion: wait out the back-off,
// close the target bank if a row is open there (the triggering activation
// left one open), then issue the RFM. Returns true when it consumed the
// command slot. The rank cannot be powered down here: the triggering ACT
// proves it awake, and idleManage is unreachable while rfmPending.
func (cc *chanCtl) issueRFM(mem int64) bool {
	if mem < cc.alertUntil {
		cc.noteReady(cc.alertUntil)
		return false
	}
	r, b := cc.rfmRank, cc.rfmBank
	if _, _, open := cc.ch.OpenRow(r, b); open {
		return cc.precharge(mem, r, b)
	}
	at, ok := cc.ch.RFMReadyAt(mem, r, b)
	if !ok {
		return false
	}
	if at > mem {
		cc.noteReady(at)
		return false
	}
	if err := cc.ch.RefreshManage(mem, r, b); err != nil {
		return false
	}
	cc.rfmPending = false
	if cc.ev.Enabled(obs.LevelState) {
		cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
			Kind: "rfm", Detail: fmt.Sprintf("rank %d bank %d blocked for tRFM=%d", r, b, cc.cfg.Timing.TRFM)})
	}
	return true
}
