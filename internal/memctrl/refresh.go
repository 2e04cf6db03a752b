package memctrl

import (
	"pradram/internal/core"
	"pradram/internal/dram"
)

// refreshEngine is the state of the refresh engine (DESIGN.md §4f), which
// pushes due refreshes ahead of every other command — all-bank REF,
// round-robin REFpb, or elastic REF postponed while a rank is busy and
// pulled in before it powers down — and bounds the channel's sleep by the
// next refresh obligation. refPending[r] freezes rank r's request commands
// while its all-bank REF waits for the banks to close.
type refreshEngine struct {
	refPending []bool
}

// refreshWanted reports whether this pass should push a refresh toward
// rank r. Powered-down ranks never want one here: the wake loop at the top
// of the pass decides when a refresh is worth a wake, so a still-sleeping
// rank is by definition one whose refreshes are being deferred. An awake
// busy rank postpones due refreshes until the device's elasticity window
// runs out (at once outside elastic refresh) or the rank goes idle.
func (cc *chanCtl) refreshWanted(mem int64, r int) bool {
	return !cc.ch.PoweredDown(r) && (cc.ch.RefreshMust(mem, r) ||
		cc.ch.RefreshDue(mem, r) && !cc.rankHasWork(r))
}

// refreshHorizon returns the earliest cycle a refresh obligation can force
// scheduling work, for the channel sleep computation. A powered-down or
// busy rank only matters at its must-refresh deadline (its merely-due
// refreshes are being postponed; outside elastic refresh the two
// coincide); an idle awake rank at its next-due time.
func (cc *chanCtl) refreshHorizon() int64 {
	h := int64(core.FarFuture)
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		at := cc.ch.NextRefreshAt(r)
		if cc.ch.PoweredDown(r) || cc.rankHasWork(r) {
			at = cc.ch.MustRefreshAt(r)
		}
		h = min(h, at)
	}
	return h
}

// issueRefresh is the refresh engine's share of a scheduling pass: it drives
// due refreshes, closing a rank's banks and then issuing REF (or a
// round-robin REFpb under per-bank refresh). Returns true when it consumed
// the command slot.
func (cc *chanCtl) issueRefresh(mem int64) bool {
	cc.run(engRefresh)
	if cc.ch.NextRefreshAny() > mem {
		// No rank is due. refPending entries are already false: a pending
		// flag only rises while its rank is due, and the refresh that
		// clears the due condition resets the flag in the same pass.
		return false
	}
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		if cc.cfg.RefreshMode == dram.RefPerBank {
			// REFpb blocks only its target bank, so the rank-wide
			// refPending column freeze does not apply.
			if cc.refreshWanted(mem, r) && cc.issueRefreshBank(mem, r) {
				return true
			}
			continue
		}
		cc.refPending[r] = cc.refreshWanted(mem, r)
		if cc.refPending[r] && cc.refreshRank(mem, r, false) {
			return true
		}
	}
	return false
}

// refreshRank pushes an all-bank REF to rank r: a PRE to one of its open
// banks, or the REF once all are closed. It serves due refreshes and, when
// pullIn, elastic refresh's other half: the low-power engine calls it for
// an idle rank about to power down with credit to spare, so the coming
// sleep is not cut short. Reports whether it consumed the command slot.
func (cc *chanCtl) refreshRank(mem int64, r int, pullIn bool) bool {
	slot, ref := cc.closeThen(mem, r, 0, cc.cfg.Geom.Banks, cc.ch.RefreshReadyAt, cc.ch.Refresh)
	if ref {
		cc.refPending[r] = false
	}
	if ref && cc.tracing() {
		if pullIn {
			cc.emit(mem, "refresh", "rank %d pull-in before power-down", r)
		} else {
			cc.emit(mem, "refresh", "rank %d blocked for tRFC=%d", r, cc.cfg.Timing.TRFC)
		}
	}
	return slot
}

// issueRefreshBank pushes rank r's round-robin per-bank refresh forward:
// close the target bank if a row is open there, then REFpb. Returns true
// when it consumed the command slot. REFpb cannot lose the bank to a
// re-activation: issueRefresh runs first in every scheduling pass and both
// REFpb and ACT are gated by the same actAllowed window, so the refresh
// command wins the first cycle both become legal.
func (cc *chanCtl) issueRefreshBank(mem int64, r int) bool {
	b := cc.ch.NextRefreshBank(r)
	slot, ref := cc.closeThen(mem, r, b, b+1, cc.ch.RefreshBankReadyAt, cc.ch.RefreshBank)
	if ref && cc.tracing() {
		cc.emit(mem, "refresh", "rank %d bank %d blocked for tRFCpb=%d", r, b, cc.cfg.Timing.TRFCPB)
	}
	return slot
}
