package dram

import "pradram/internal/core"

// LatTerm indexes one constraint family contributing to a command's ready
// time. The controller's latency-attribution layer (memctrl) uses the
// per-term deadlines to blame each cycle a request waited on the component
// that was holding the command back; the terms are built from the same
// parts as the ready cycles they explain (RankTerms), so the decomposition
// can never drift out of lockstep with the readiness rules.
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

// CmdTerms holds one ready-cycle term per command kind. Every readiness rule
// of the device is stated once, in one of three parts: BankTerms (the bank's
// own FSM), RankTerms (the rank gate and the rank- and channel-scoped
// timing) and FAWReadyAt (the weighted tFAW window, the one term that
// depends on an ACT's mask). A command's ready cycle is
// max(now, BankTerms.X, RankTerms.X[, FAWReadyAt]); the *ReadyAt methods,
// the refresh family's readiness and the blame decomposition
// (RankTerms.ActLatTerms and its twins) are all built from these parts.
type CmdTerms struct {
	Act, Read, Write, Pre int64
}

// BankTerms returns bank (r,b)'s own readiness cycles: tRC, tRP and any
// refresh or RFM blocking for an ACT (and for a refresh of the bank);
// tRCD, plus the PRA mask cycle, for a column command; tRAS, tRTP and
// write recovery for a PRE.
func (c *Channel) BankTerms(r, b int) CmdTerms {
	bk := c.bank(r, b)
	return CmdTerms{Act: bk.actAllowed, Read: bk.rdAllowed, Write: bk.wrAllowed, Pre: bk.preAllowed}
}

// RankTerms is one rank's share of the readiness of every command at one
// cycle, kept by constraint family so a ready cycle can also be explained.
// Its CmdTerms fold, per command kind, the rank gate every command waits on,
// the rank-scoped timing the kind adds and the kind's data-bus term.
type RankTerms struct {
	CmdTerms
	refresh, pd, cmd int64 // the gate: in-flight refresh, power-down exit, command/address bus
	rrd, rdCol, col  int64 // weighted tRRD (ACT); tCCD and tWTR (RD); tCCD (WR)
	rdBus, wrBus     int64 // the earliest RD / WR whose burst neither overlaps the last nor skips its tRTRS gap
	pdReady          int64 // end of the minimum CKE-high pulse since the last wake
}

// RankTerms fills t with rank r's share of command readiness at cycle now
// (in place: a scheduler caches it per pass). It depends on now only
// through the assumed wake of a still-powered-down rank: the power-down
// exit is then taken as if the Wake were issued at the query time.
func (c *Channel) RankTerms(now int64, r int, t *RankTerms) {
	rk := c.rank(r)
	t.refresh, t.pd, t.cmd = rk.refUntil, c.pdExitAt(rk, now), c.cmdFree
	t.rrd, t.rdCol, t.col = rk.rrdAllowed, max(rk.colAllowed, rk.rdAfterWr), rk.colAllowed
	t.rdBus, t.wrBus = c.busFree-int64(c.T.TCAS), c.busFree-int64(c.T.CWL)
	if c.busDir != BusIdle {
		if c.busDir != BusRead || c.busRank != r {
			t.rdBus += int64(c.T.TRTRS)
		}
		if c.busDir != BusWrite || c.busRank != r {
			t.wrBus += int64(c.T.TRTRS)
		}
	}
	t.pdReady = rk.pdReady
	g := max(t.refresh, t.pd, t.cmd)
	t.CmdTerms = CmdTerms{Act: max(g, t.rrd), Read: max(g, t.rdCol, t.rdBus), Write: max(g, t.col, t.wrBus), Pre: g}
}

// rankFold returns the RankTerms fold alone, for a single query.
func (c *Channel) rankFold(now int64, r int) CmdTerms {
	var t RankTerms
	c.RankTerms(now, r, &t)
	return t.CmdTerms
}

// explain fills lt with the deadlines, by constraint family, of a command
// whose bank term is bank, whose rank-scoped timing is timing and whose
// data-bus term is bus, and returns its ready cycle — the fold's
// max(now, bank, the gate, timing, bus). The data bus is blamed on
// TermTiming only when it binds.
func (t *RankTerms) explain(now, bank, timing, bus int64, lt *LatTerms) int64 {
	*lt = LatTerms{TermBank: bank, TermTiming: max(t.cmd, timing), TermRefresh: t.refresh, TermPD: t.pd}
	at := max(now, bank, lt[TermTiming], t.refresh, t.pd)
	if bus > at {
		lt[TermTiming] = bus
		return bus
	}
	return at
}

// ActLatTerms fills lt with the per-term deadlines gating an ACT on a bank
// whose own terms are bank, with faw the FAWReadyAt term of the ACT's mask,
// and returns its ready cycle.
func (t *RankTerms) ActLatTerms(now int64, bank CmdTerms, faw int64, lt *LatTerms) int64 {
	return t.explain(now, bank.Act, max(t.rrd, faw), 0, lt)
}

// ReadLatTerms fills lt with the per-term deadlines gating a column read on
// a bank whose own terms are bank and returns its ready cycle. Data-bus
// contention (the burst must fit the bus, including tRTRS gaps) folds into
// TermTiming.
func (t *RankTerms) ReadLatTerms(now int64, bank CmdTerms, lt *LatTerms) int64 {
	return t.explain(now, bank.Read, t.rdCol, t.rdBus, lt)
}

// WriteLatTerms is ReadLatTerms for a column write.
func (t *RankTerms) WriteLatTerms(now int64, bank CmdTerms, lt *LatTerms) int64 {
	return t.explain(now, bank.Write, t.col, t.wrBus, lt)
}

// FAWReadyAt returns the weighted-tFAW share of the ready cycle of an ACT of
// the given mask in rank r: the earliest cycle the in-window weights plus
// the ACT's own stay within four full activations. The weight depends only
// on the mask's granularity, so one value serves every such ACT of the rank
// in a cycle.
func (c *Channel) FAWReadyAt(r int, mask core.Mask, halfDRAM bool) int64 {
	const eps = 1e-9
	faw := c.rank(r).faw
	excess := c.actWeight(mask, halfDRAM) - 4 // in-window weight past four full ACTs
	for _, e := range faw {
		excess += e.w
	}
	var at int64 // the ACT fits once the oldest entries that carry the excess leave
	for _, e := range faw {
		if excess <= eps {
			break
		}
		excess -= e.w
		at = e.t + int64(c.T.TFAW)
	}
	return at
}

// actWeight returns the tRRD/tFAW charge of an activation (1 for every ACT
// under the NoWeightedFAW ablation).
func (c *Channel) actWeight(mask core.Mask, halfDRAM bool) float64 {
	if c.NoWeightedFAW {
		return 1
	}
	return core.ActivationWeight(mask, halfDRAM)
}
