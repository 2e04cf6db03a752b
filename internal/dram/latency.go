package dram

import "pradram/internal/core"

// LatTerm indexes one constraint family contributing to a command's ready
// time. The controller's latency-attribution layer (memctrl) uses the
// per-term deadlines to blame each cycle a request waited on the component
// that was holding the command back; ActReadyAt / ReadReadyAt /
// WriteReadyAt are computed *from* these terms, so the decomposition can
// never drift out of lockstep with the readiness rules it explains.
type LatTerm uint8

const (
	// TermBank is the bank FSM itself: PRE/ACT serialization (tRP, tRC,
	// RFM blocking) before an ACT, and the RAS-to-CAS window (tRCD, plus
	// the PRA mask cycle) before a column command.
	TermBank LatTerm = iota
	// TermTiming covers the rank- and channel-shared constraints: tRRD and
	// the weighted tFAW window, tCCD on the shared column path, tWTR
	// write-to-read turnaround, the one-cycle command/address bus, and
	// data-bus contention (burst overlap and tRTRS turnaround gaps).
	TermTiming
	// TermRefresh is the end of an in-flight refresh blocking the rank.
	TermRefresh
	// TermPD is the power-down exit window (tXP / tXPDLL / tXS).
	TermPD
	// NumLatTerms sizes LatTerms.
	NumLatTerms
)

// LatTerms holds one absolute ready deadline per constraint family. A term
// at or before the query cycle was not blocking; the command's ready cycle
// is the maximum over the terms (and the query cycle itself).
type LatTerms [NumLatTerms]int64

// maxTerms folds a term set back into the single ready cycle.
func maxTerms(now int64, t *LatTerms) int64 {
	at := now
	for _, d := range t {
		if d > at {
			at = d
		}
	}
	return at
}

// ActLatTerms fills t with the per-term deadlines gating an ACT of the
// given mask on bank (r,b) and returns the resulting ready cycle — the
// same value as ActReadyAt, which is defined in terms of this method.
func (c *Channel) ActLatTerms(now int64, r, b int, mask core.Mask, halfDRAM bool, t *LatTerms) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	t[TermBank] = bk.actAllowed
	t[TermTiming] = max(rk.rrdAllowed, c.fawReadyAt(rk, c.actWeight(mask, halfDRAM)), c.cmdFree)
	t[TermRefresh] = rk.refUntil
	t[TermPD] = c.pdExitAt(rk, now)
	return maxTerms(now, t)
}

// ReadLatTerms fills t with the per-term deadlines gating a column read on
// bank (r,b) and returns the resulting ready cycle — the same value as
// ReadReadyAt, which is defined in terms of this method. Data-bus
// contention (the burst must fit the bus, including tRTRS gaps) folds into
// TermTiming.
func (c *Channel) ReadLatTerms(now int64, r, b, burstCycles int, t *LatTerms) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	t[TermBank] = bk.rdAllowed
	t[TermTiming] = max(rk.colAllowed, rk.rdAfterWr, c.cmdFree)
	t[TermRefresh] = rk.refUntil
	t[TermPD] = c.pdExitAt(rk, now)
	at := maxTerms(now, t)
	// The data phase must fit the bus: command time is data start - CL.
	ready := c.busStart(at+int64(c.T.TCAS), BusRead, r) - int64(c.T.TCAS)
	if ready > at {
		t[TermTiming] = ready
	}
	return ready
}

// WriteLatTerms fills t with the per-term deadlines gating a column write
// on bank (r,b) and returns the resulting ready cycle — the same value as
// WriteReadyAt, which is defined in terms of this method.
func (c *Channel) WriteLatTerms(now int64, r, b, burstCycles int, t *LatTerms) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	t[TermBank] = bk.wrAllowed
	t[TermTiming] = max(rk.colAllowed, c.cmdFree)
	t[TermRefresh] = rk.refUntil
	t[TermPD] = c.pdExitAt(rk, now)
	at := maxTerms(now, t)
	ready := c.busStart(at+int64(c.T.CWL), BusWrite, r) - int64(c.T.CWL)
	if ready > at {
		t[TermTiming] = ready
	}
	return ready
}

// CmdTerms holds one ready-cycle term per command kind: the factored form
// of the readiness rules above, for a scheduler that evaluates many banks
// in one cycle. With BankTerms the bank's own share and RankTerms the share
// all banks of a rank have in common, a command's ready cycle is
// max(now, BankTerms(r,b).X, RankTerms(now,r).X) — for an ACT also over
// FAWReadyAt, the one term that depends on the mask — and equals
// ActLatTerms / ReadLatTerms / WriteLatTerms / PreReadyAt, which explain
// the same cycle by constraint family (FuzzFactoredReadiness).
type CmdTerms struct {
	Act, Read, Write, Pre int64
}

// BankTerms returns bank (r,b)'s own readiness cycles (TermBank of the
// *LatTerms methods; tRAS/tRTP/write recovery for a PRE).
func (c *Channel) BankTerms(r, b int) CmdTerms {
	bk := c.bank(r, b)
	return CmdTerms{Act: bk.actAllowed, Read: bk.rdAllowed, Write: bk.wrAllowed, Pre: bk.preAllowed}
}

// RankTerms returns the rank- and channel-scoped share of command
// readiness for rank r at cycle now: command bus, in-flight refresh and
// power-down exit for every command, plus tRRD for an ACT, tCCD, tWTR
// (reads) and the data-bus gap for a column. It depends on now only
// through the assumed wake of a still-powered-down rank.
func (c *Channel) RankTerms(now int64, r int) CmdTerms {
	rk := c.rank(r)
	pre := max(rk.refUntil, c.cmdFree, c.pdExitAt(rk, now))
	col := max(pre, rk.colAllowed)
	return CmdTerms{
		Act:   max(pre, rk.rrdAllowed),
		Read:  max(col, rk.rdAfterWr, c.busStart(0, BusRead, r)-int64(c.T.TCAS)),
		Write: max(col, c.busStart(0, BusWrite, r)-int64(c.T.CWL)),
		Pre:   pre,
	}
}

// FAWReadyAt returns the weighted-tFAW share of the ready cycle of an ACT
// of the given mask in rank r. The weight depends only on the mask's
// granularity, so one value serves every such ACT of the rank in a cycle.
func (c *Channel) FAWReadyAt(r int, mask core.Mask, halfDRAM bool) int64 {
	return c.fawReadyAt(c.rank(r), c.actWeight(mask, halfDRAM))
}

// actWeight returns the tRRD/tFAW charge of an activation (1 for every ACT
// under the NoWeightedFAW ablation).
func (c *Channel) actWeight(mask core.Mask, halfDRAM bool) float64 {
	if c.NoWeightedFAW {
		return 1
	}
	return core.ActivationWeight(mask, halfDRAM)
}
