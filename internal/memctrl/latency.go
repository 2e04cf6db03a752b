package memctrl

import (
	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/stats"
)

// Per-request latency attribution (DESIGN.md §4h). Every request's
// arrival-to-data latency is decomposed, cycle-exactly, into the named
// components below. The mechanism rides the scheduler's existing readiness
// queries: the dram package's *LatTerms methods report one absolute
// deadline per device-constraint family (and *ReadyAt is defined as their
// max, so the decomposition cannot drift from the rules it explains), and
// each command issued on a request's behalf sweeps the interval since the
// request's last attribution point, blaming sub-intervals on the
// constraint families in deadline order. Whatever no constraint explains —
// scheduler scan order, losing the command slot to other requests, row-hit
// caps — is queue time by definition, which makes the breakdown sum to the
// total latency by construction.
//
// With Config.LatBreak off the per-request cost is one int64 assignment
// (the sweep frontier still advances so checkpoints carry it either way)
// and simulated results are bit-identical to a controller without this
// file.

// LatComponent indexes one component of a request's arrival-to-data
// latency. Components partition the latency: for every completed request
// the per-component cycles sum exactly to done-arrive.
type LatComponent uint8

const (
	// LatQueue is the wait no device constraint explains: time in the
	// queue before the scheduler picked the request, slots lost to older
	// or drain-prioritized requests, and row-hit cap deferrals. It is the
	// residual of the partition, so the conservation invariant holds by
	// construction.
	LatQueue LatComponent = iota
	// LatBank is the bank FSM: PRE/ACT serialization (tRP, tRC, a pending
	// RFM holding actAllowed) before the request's ACT, and the
	// RAS-to-CAS window before its column command.
	LatBank
	// LatTiming covers rank- and channel-shared constraints: tRRD and the
	// weighted tFAW activation window, tCCD, tWTR turnaround, the
	// command/address bus, and data-bus contention.
	LatTiming
	// LatRefresh is time blocked behind an in-flight REF/REFpb (tRFC).
	LatRefresh
	// LatPD is the power-down exit window (tXP / tXPDLL / tXS).
	LatPD
	// LatAlert is time stalled by a RowHammer mitigation alert back-off
	// (mitigation.go): the channel-wide command freeze until alertUntil.
	LatAlert
	// LatXfer is the data phase of the completing column command: CL (or
	// CWL) plus the burst on the data bus.
	LatXfer
	// NumLatComponents sizes LatBreakdown.
	NumLatComponents
)

// latComponentNames are the short names used in reports, CSV headers, and
// telemetry variable names.
var latComponentNames = core.Enum[LatComponent]{
	Names: []string{"queue", "bank", "timing", "refresh", "pd", "alert", "xfer"},
}

// String returns the component's short report name.
func (c LatComponent) String() string { return latComponentNames.Name(c) }

// LatBreakdown is one latency decomposition in memory cycles, indexed by
// LatComponent.
type LatBreakdown [NumLatComponents]int64

// Sum returns the total cycles across all components. For a completed
// request (and for the per-kind aggregates in Stats) it equals the
// request's arrival-to-data latency.
func (b *LatBreakdown) Sum() int64 {
	var s int64
	for _, v := range b {
		s += v
	}
	return s
}

// Accum adds o into b component-wise.
func (b *LatBreakdown) Accum(o *LatBreakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// latSpanCap bounds the per-channel sampled-span ring. At the default
// sampling rate the ring covers the tail of the run; the trace exporter
// documents that spans are a sample, not a census.
const latSpanCap = 4096

// LatSpan is one sampled request lifetime, for trace export: the request's
// identity, its arrival and data-completion cycles (memory clock), and its
// component breakdown.
type LatSpan struct {
	Kind   core.AccessKind
	Loc    Loc
	Arrive int64
	Done   int64
	Break  LatBreakdown
}

// sweepWait blames the cycles in [req.mark, now) — the wait since the last
// command issued on req's behalf — and advances the frontier to now, the
// issue cycle of the current command. Each constraint family's deadline is
// clamped into the interval; walking them in ascending order blames each
// family for the stretch between the previous deadline and its own (the
// earliest-releasing constraint still active owns the cycle). Cycles past
// the last deadline stay unblamed here and fall to LatQueue when the
// request completes. Only the latest deadline per family is visible at
// issue time, so a family that blocked twice within one wait is undercounted
// in favor of LatQueue — the conservative direction (DESIGN.md §4h).
//
// Ties blame the episodic cause over its knock-on effect: a refresh clamps
// every bank's actAllowed to refUntil, so the refresh and bank deadlines
// coincide and the cycle belongs to refresh. The insertion sort is stable
// and the array below lists refresh/PD/alert first, which implements
// exactly that preference.
func (cc *chanCtl) sweepWait(req *request, now int64, t *dram.LatTerms) {
	if cc.cfg.LatBreak {
		type deadline struct {
			at   int64
			comp LatComponent
		}
		dls := [5]deadline{
			{t[dram.TermRefresh], LatRefresh},
			{t[dram.TermPD], LatPD},
			{cc.alertUntil, LatAlert},
			{t[dram.TermBank], LatBank},
			{t[dram.TermTiming], LatTiming},
		}
		for i := range dls {
			if dls[i].at < req.mark {
				dls[i].at = req.mark
			}
			if dls[i].at > now {
				dls[i].at = now
			}
			for j := i; j > 0 && dls[j-1].at > dls[j].at; j-- {
				dls[j-1], dls[j] = dls[j], dls[j-1]
			}
		}
		prev := req.mark
		for _, d := range dls {
			if d.at > prev {
				req.brk[d.comp] += d.at - prev
				prev = d.at
			}
		}
	}
	req.mark = now
}

// completeLat finalizes req's attribution at its completing column command
// (issued at issue, data done at done) and folds it into the channel
// aggregates: the data phase becomes LatXfer, the unexplained remainder
// becomes LatQueue — making the breakdown sum exactly done-arrive — and the
// total feeds the percentile histograms and the sampled-span ring. Callers
// update ReadLatencySum/WriteLatencySum themselves (those are always-on).
func (cc *chanCtl) completeLat(req *request, issue, done int64) {
	if !cc.cfg.LatBreak {
		return
	}
	req.brk[LatXfer] += done - issue
	lat := done - req.arrive
	req.brk[LatQueue] += lat - req.brk.Sum()
	if req.kind == core.Read {
		cc.stats.ReadLatBreak.Accum(&req.brk)
		cc.stats.ReadLatHist.Add(lat)
		cc.latHistBank[req.loc.Rank*cc.cfg.Geom.Banks+req.loc.Bank].Add(lat)
	} else {
		cc.stats.WriteLatBreak.Accum(&req.brk)
		cc.stats.WriteLatHist.Add(lat)
	}
	cc.recordSpan(req, done)
}

// recordSpan samples every LatSpanEvery-th completed request into the span
// ring (oldest spans are overwritten once the ring is full).
func (cc *chanCtl) recordSpan(req *request, done int64) {
	every := int64(cc.cfg.LatSpanEvery)
	if every <= 0 {
		return
	}
	if cc.spanSeq%every == 0 {
		s := LatSpan{Kind: req.kind, Loc: req.loc, Arrive: req.arrive, Done: done, Break: req.brk}
		if len(cc.spans) < latSpanCap {
			cc.spans = append(cc.spans, s)
		} else {
			cc.spans[cc.spanHead] = s
			cc.spanHead = (cc.spanHead + 1) % latSpanCap
		}
	}
	cc.spanSeq++
}

// resetLat clears the measurement-scoped attribution state (aggregates
// live in Stats and are cleared with it). In-flight requests keep their
// full arrival-to-data latency — their completions land in the post-reset
// aggregates exactly like ReadLatencySum — but the blame they accrued
// before the reset is dropped and falls to the LatQueue residual instead.
// That keeps a warmup checkpoint (taken right after this reset) equivalent
// to the live system regardless of whether attribution was on while
// warming, which is what lets LatBreak stay out of the warmup fingerprint.
func (cc *chanCtl) resetLat() {
	for i := range cc.latHistBank {
		cc.latHistBank[i] = stats.LogHist{}
	}
	cc.spans = cc.spans[:0]
	cc.spanHead = 0
	cc.spanSeq = 0
	for i := range cc.banks {
		for _, q := range cc.banks[i].q {
			for _, req := range q {
				req.brk = LatBreakdown{}
			}
		}
	}
	for _, req := range cc.forwards {
		req.brk = LatBreakdown{}
	}
}

// LatSpans returns a copy of the sampled request spans of every channel,
// oldest first within each channel (empty unless LatBreak and LatSpanEvery
// are set).
func (c *Controller) LatSpans() []LatSpan {
	var out []LatSpan
	for _, cc := range c.chans {
		out = append(out, cc.spans[cc.spanHead:]...)
		out = append(out, cc.spans[:cc.spanHead]...)
	}
	return out
}
