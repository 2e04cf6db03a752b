package memctrl

import (
	"pradram/internal/core"
	"pradram/internal/dram"
)

// PDPolicy selects when the controller drops an idle rank into a
// power-down state (DESIGN.md §4f). The zero value reproduces the
// pre-FSM behavior: immediate fast-exit precharge power-down.
type PDPolicy uint8

const (
	// PDImmediate powers a rank down the first scheduling pass it is
	// idle (no queued work, no open banks, no refresh due). Maximum
	// residency, but a request arriving right after entry pays the
	// tCKE+tXP round trip.
	PDImmediate PDPolicy = iota
	// PDNone never powers ranks down (the power-management ablation
	// baseline; self-refresh escalation may still apply).
	PDNone
	// PDTimed powers a rank down once it has been idle for PDTimeout
	// memory cycles — a hysteresis that avoids thrashing entry/exit on
	// short idle gaps.
	PDTimed
	// PDQueueAware behaves like PDImmediate while the whole channel is
	// empty but applies the PDTimeout hysteresis when other ranks still
	// have queued work (bank-parallel phases tend to spread requests
	// across ranks, so channel activity predicts near-term rank work).
	PDQueueAware
)

// PDPolicyNames spells each PDPolicy once (case-insensitive on parse).
var PDPolicyNames = core.Enum[PDPolicy]{
	Names: []string{"immediate", "none", "timeout", "queue"},
	Fold:  true,
}

// String names the policy as the -pd-policy flag spells it.
func (p PDPolicy) String() string { return PDPolicyNames.Name(p) }

// Set parses a power-down policy name into p (*PDPolicy is a flag.Value).
func (p *PDPolicy) Set(name string) error { return PDPolicyNames.Set(p, name) }

// lowPowerEngine is the state of the low-power engine (DESIGN.md §4f),
// which wakes powered-down ranks that have work and drops idle ones into
// power-down or self-refresh as the LowPower knobs direct. lastWork is the
// cycle each rank last emptied, the idle clock the timeouts count from. A
// rank only empties through a column command (issueColumn stamps it), and
// lastWork is only read while the rank is idle, so it does not depend on
// which cycles run a pass.
type lowPowerEngine struct {
	lastWork []int64
}

// wakeRanks opens a scheduling pass: it wakes the powered-down ranks that
// have work or a refresh they must take (under elastic refresh a merely-due
// refresh is postponed rather than cutting the sleep short); the wake costs
// the state's exit latency before the first command (tXP/tXPDLL/tXS).
func (cc *chanCtl) wakeRanks(mem int64) {
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		if cc.ch.PoweredDown(r) && (cc.rankHasWork(r) || cc.ch.RefreshMust(mem, r)) {
			st := cc.ch.PDStateOf(r)
			cc.ch.Wake(mem, r)
			if cc.tracing() {
				cc.emit(mem, "wake", "rank %d out of %v", r, st)
			}
		}
	}
}

// manageRanks is the low-power engine's share of a scheduling pass: every
// idle rank moves toward the state its policy wants. Only an elastic
// pull-in (refresh.go) issues a command; it reports whether one did.
func (cc *chanCtl) manageRanks(mem int64) bool {
	cc.run(engLowPower)
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		if cc.rankHasWork(r) {
			continue
		}
		if st := cc.ch.PDStateOf(r); st != dram.PDAwake {
			// Self-refresh escalation: a rank that has slept in precharge
			// power-down past SRTimeout is woken (paying the exit latency)
			// so the self-refresh entry command can issue on a later pass;
			// until then the deadline bounds the channel's sleep.
			if (st == dram.PDPrechargeFast || st == dram.PDPrechargeSlow) && cc.reached(mem, cc.srDueAt(r)) {
				cc.ch.Wake(mem, r)
				if cc.tracing() {
					cc.emit(mem, "wake", "rank %d out of %v to escalate to self-refresh", r, st)
				}
				cc.noteReady(cc.ch.PDEntryReadyAt(r))
			}
			continue
		}
		if cc.ch.RefreshDue(mem, r) {
			continue // the refresh engine owns the rank until it is current
		}
		pdAt, srAt := cc.pdDueAt(mem, r), cc.srDueAt(r)
		switch {
		case cc.ch.AnyBankOpen(r):
			// Open rows with no queued beneficiary only persist under the
			// open-page policy; active power-down is their companion state.
			if cc.cfg.APD && cc.reached(mem, pdAt) && cc.enterPD(mem, r, cc.ch.EnterActivePowerDown) &&
				cc.tracing() {
				cc.emit(mem, "power-down", "rank %d idle, entering active power-down", r)
			}
		case pdAt <= mem && srAt > mem && cc.ch.CanPullIn(mem, r):
			// About to sleep with refresh credit to spare: an early REF, which
			// books as refresh. Pointless when self-refresh is imminent (the
			// device then refreshes itself).
			cc.run(engRefresh)
			if cc.refreshRank(mem, r, true) {
				return true
			}
			cc.run(engLowPower)
		case cc.reached(mem, srAt):
			if cc.enterPD(mem, r, cc.ch.EnterSelfRefresh) && cc.tracing() {
				cc.emit(mem, "self-refresh", "rank %d idle for %d cycles, entering self-refresh", r, mem-cc.lastWork[r])
			}
		case cc.reached(mem, pdAt):
			if cc.enterPD(mem, r, cc.ch.EnterPowerDown) && cc.tracing() {
				cc.emit(mem, "power-down", "rank %d idle, entering precharge power-down", r)
			}
		}
	}
	return false
}

// enterPD drops idle rank r into a low-power state with enter (one of the
// device's Enter* methods) once the rank's tCKE window allows an entry,
// noting when it will otherwise. Reports whether the rank went down.
func (cc *chanCtl) enterPD(mem int64, r int, enter func(int64, int) bool) bool {
	return cc.reached(mem, cc.ch.PDEntryReadyAt(r)) && enter(mem, r)
}

// pdDueAt returns the cycle at which the power-down policy wants idle rank
// r to drop CKE (core.FarFuture under PDNone; a value <= mem means "now").
func (cc *chanCtl) pdDueAt(mem int64, r int) int64 {
	switch cc.cfg.PDPolicy {
	case PDNone:
		return core.FarFuture
	case PDTimed:
		return cc.lastWork[r] + cc.cfg.PDTimeout
	case PDQueueAware:
		if cc.n[core.Read] == 0 && cc.n[core.Write] == 0 {
			return mem
		}
		return cc.lastWork[r] + cc.cfg.PDTimeout
	default: // PDImmediate
		return mem
	}
}

// srDueAt returns the cycle at which idle rank r should escalate to
// self-refresh (core.FarFuture when escalation is disabled).
func (cc *chanCtl) srDueAt(r int) int64 {
	if cc.cfg.SRTimeout == 0 {
		return core.FarFuture
	}
	return cc.lastWork[r] + cc.cfg.SRTimeout
}
