package dram

import (
	"fmt"
	"strings"
)

// PDState is a rank's power-down FSM state (DESIGN.md §4f). The zero value
// is the fully-awake state, so zero-initialized and legacy checkpointed
// ranks behave exactly like the pre-FSM simulator.
type PDState uint8

const (
	// PDAwake: CKE high, commands accepted (ACT STBY or PRE STBY power).
	PDAwake PDState = iota
	// PDActive: active power-down — CKE low with one or more banks open.
	// Exit costs tXP; row-buffer contents survive.
	PDActive
	// PDPrechargeFast: fast-exit precharge power-down (DLL kept running).
	// Exit costs tXP.
	PDPrechargeFast
	// PDPrechargeSlow: slow-exit precharge power-down (DLL frozen). Exit
	// costs tXPDLL; background power drops below the fast-exit state.
	PDPrechargeSlow
	// PDSelfRefresh: self-refresh — the device refreshes itself from an
	// internal oscillator; the external refresh obligation is suspended.
	// Exit costs tXS.
	PDSelfRefresh
)

// pdStateNames indexes PDState. Kept in sync with the constants above.
var pdStateNames = [...]string{"awake", "active-pd", "pre-pd-fast", "pre-pd-slow", "self-refresh"}

// String names the state for events and reports.
func (s PDState) String() string {
	if int(s) < len(pdStateNames) {
		return pdStateNames[s]
	}
	return fmt.Sprintf("PDState(%d)", uint8(s))
}

// RefreshMode selects the refresh management discipline of a channel. It
// is the run's refresh knob (memctrl.Knobs.RefreshMode) as the device
// reads it.
type RefreshMode uint8

const (
	// RefAllBank is the conventional discipline: one all-bank REF per rank
	// every tREFI, blocking the whole rank for tRFC, due exactly at its
	// nominal deadline. The zero value, and the only mode the pre-FSM
	// simulator had.
	RefAllBank RefreshMode = iota
	// RefPerBank round-robins REFpb commands across banks at a tREFI/banks
	// cadence; each blocks only its target bank, for the shorter tRFCpb.
	RefPerBank
	// RefElastic keeps all-bank REF but uses JEDEC DDR3's elasticity: a
	// refresh may be postponed, or pulled in, by up to refreshCredit
	// intervals (the controller postpones while a rank has work and pulls
	// in before it powers down).
	RefElastic
)

// refreshCredit is JEDEC DDR3's refresh elasticity in refresh intervals.
const refreshCredit = 8

// refreshModeNames indexes RefreshMode.
var refreshModeNames = [...]string{"allbank", "perbank", "elastic"}

// String names the mode as accepted by ParseRefreshMode.
func (m RefreshMode) String() string {
	if int(m) < len(refreshModeNames) {
		return refreshModeNames[m]
	}
	return fmt.Sprintf("RefreshMode(%d)", uint8(m))
}

// ParseRefreshMode resolves a refresh-mode name ("allbank", "perbank",
// "elastic"; "postpone" is accepted as an alias for "elastic").
func ParseRefreshMode(name string) (RefreshMode, error) {
	if strings.EqualFold(name, "postpone") {
		return RefElastic, nil
	}
	for i, n := range refreshModeNames {
		if strings.EqualFold(name, n) {
			return RefreshMode(i), nil
		}
	}
	return 0, fmt.Errorf("dram: unknown refresh mode %q (want one of %s)",
		name, strings.Join(refreshModeNames[:], ", "))
}

// PDStateOf reports rank r's power-down FSM state.
func (c *Channel) PDStateOf(r int) PDState { return c.rank(r).pd }

// PoweredDown reports whether rank r is in any power-down state (CKE low),
// including self-refresh.
func (c *Channel) PoweredDown(r int) bool { return c.rank(r).pd != PDAwake }

// exitLatency returns the cycles from CKE rising to the first legal
// command for a rank leaving state s.
func (c *Channel) exitLatency(s PDState) int64 {
	switch s {
	case PDPrechargeSlow:
		return int64(c.T.TXPDLL)
	case PDSelfRefresh:
		return int64(c.T.TXS)
	default: // PDActive, PDPrechargeFast
		return int64(c.T.TXP)
	}
}

// wakeAt returns the earliest cycle >= now at which CKE may legally rise
// for a powered-down rank: entry must have satisfied the minimum CKE-low
// pulse width tCKE (tCKESR is modeled as tCKE).
func (c *Channel) wakeAt(rk *rankState, now int64) int64 {
	return max(now, rk.pdEnteredAt+int64(c.T.TCKE))
}

// pdExitAt returns the earliest cycle rank rk accepts a command, assuming a
// Wake issued at the query time for a still-powered-down rank. For an awake
// rank it is the residual exit window of the last wake.
func (c *Channel) pdExitAt(rk *rankState, now int64) int64 {
	if rk.pd == PDAwake {
		return rk.pdExit
	}
	return max(rk.pdExit, c.wakeAt(rk, now)+c.exitLatency(rk.pd))
}

// Wake takes rank r out of its power-down state. CKE rises at the earliest
// legal cycle >= now (entry residency tCKE is enforced as a clamp) and the
// rank accepts no command before that plus the state's exit latency (tXP,
// tXPDLL, or tXS). Waking an already-awake rank is a no-op. The controller
// must wake a rank before issuing to it; readiness queries on a
// still-powered-down rank report as if the wake were issued now. Waking
// from self-refresh re-arms the external refresh timer one interval after
// the exit completes.
func (c *Channel) Wake(now int64, r int) {
	rk := c.rank(r)
	if rk.pd == PDAwake {
		return
	}
	c.flushBG(rk)
	w := c.wakeAt(rk, now)
	rk.pdExit = max(rk.pdExit, w+c.exitLatency(rk.pd))
	rk.pdReady = w + int64(c.T.TCKE)
	if rk.pd == PDSelfRefresh {
		rk.nextRefresh = rk.pdExit + c.refInterval()
	}
	rk.pd = PDAwake
	c.emit(CmdEvent{At: now, Kind: CmdCKE, Rank: r, PD: PDAwake})
}

// PDEntryReadyAt returns the earliest cycle at which awake rank r could
// legally drop CKE again: past the tCKE high pulse since the last wake,
// past that wake's exit window, and past any in-flight refresh. The
// controller uses it to bound its sleep while a power-down entry decision
// is pending; the entry methods refuse a rank that is not awake before
// asking it.
func (c *Channel) PDEntryReadyAt(r int) int64 {
	var t RankTerms
	c.RankTerms(0, r, &t)
	return max(t.pdReady, t.pd, t.refresh)
}

// enter drops rank r's CKE into state s at cycle now if the rank may: it is
// awake and past PDEntryReadyAt, with open rows for active power-down and
// none for the other states. The pending background span is flushed first
// so the new state's power starts exactly at now.
func (c *Channel) enter(now int64, r int, s PDState) bool {
	rk := c.rank(r)
	if rk.pd != PDAwake || (rk.openCount > 0) != (s == PDActive) || now < c.PDEntryReadyAt(r) {
		return false
	}
	c.flushBG(rk)
	rk.pd, rk.pdEnteredAt = s, now
	c.emit(CmdEvent{At: now, Kind: CmdCKE, Rank: r, PD: s})
	return true
}

// EnterPowerDown puts rank r into precharge power-down — fast exit, or
// slow (DLL-off) exit when the channel's SlowExitPD knob is set — and
// reports whether it entered. Entry requires all banks closed, no refresh
// in flight, and tCKE residency since the last wake.
func (c *Channel) EnterPowerDown(now int64, r int) bool {
	if c.SlowExitPD {
		return c.enter(now, r, PDPrechargeSlow)
	}
	return c.enter(now, r, PDPrechargeFast)
}

// EnterActivePowerDown puts rank r into active power-down (CKE low with
// open banks — the open-page companion state) and reports whether it
// entered. Entry requires at least one open bank; exit costs tXP and the
// row buffers survive.
func (c *Channel) EnterActivePowerDown(now int64, r int) bool { return c.enter(now, r, PDActive) }

// EnterSelfRefresh puts rank r into self-refresh and reports whether it
// entered. Entry requires all banks closed, the rank refresh-current (no
// refresh due — the controller must top up first), and an awake rank (a
// rank in precharge power-down must be woken, paying tXP, before the SRE
// command can issue). While in self-refresh the rank owes no external
// refreshes; NextRefreshAny skips it and RefreshDue reports false.
func (c *Channel) EnterSelfRefresh(now int64, r int) bool {
	if c.RefreshDue(now, r) || !c.enter(now, r, PDSelfRefresh) {
		return false
	}
	c.Stats.SelfRefEntries++
	// The device's internal refresh engine takes over and walks every row
	// during self-refresh, so the disturbance windows restart: clear the
	// rank's per-row activation counters (rowcounter.go).
	c.rowCtrReset(r, allBanks)
	return true
}
