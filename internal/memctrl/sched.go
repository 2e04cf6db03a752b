package memctrl

import (
	"math/bits"
	"sort"

	"pradram/internal/core"
	"pradram/internal/dram"
)

type request struct {
	kind      core.AccessKind
	loc       Loc
	seq       uint64        // arrival stamp within the channel (bankQ order)
	byteMask  core.ByteMask // writes: FGD dirty bytes
	wordMask  core.Mask     // cached projection of byteMask (FullMask for reads)
	arrive    int64         // memory cycle
	done      core.Done     // reads: completion, invoked with the CPU cycle
	activated bool          // an ACT was issued on this request's behalf
	falseHit  bool
	// mark is the attribution frontier (latency.go): all waiting before it
	// has been blamed, so each command sweep covers [mark, issue). It
	// advances whether or not LatBreak is on — the assignment is free, and
	// keeping it live means checkpoints can always carry it, making
	// LatBreak safely excludable from the warmup fingerprint. brk is the
	// blame accumulated so far (LatBreak only).
	mark     int64
	brk      LatBreakdown
	nextFree *request // freelist link while recycled
}

// need returns the PRA word mask this request requires open.
func (r *request) need() core.Mask { return r.wordMask }

// requestEngine is the state of the requests engine: FR-FCFS over the read
// and write queues, stored by bank (DESIGN.md "Scheduler index"), with the
// write-drain hysteresis and the precharge of rows nobody queued wants.
type requestEngine struct {
	// The read and write queues, indexed by bank (DESIGN.md "Scheduler
	// index"): banks[rank*Banks+bank] holds the bank's queued requests per
	// kind in arrival order, n counts the queued requests per kind (the
	// queue lengths the capacity, watermark and drain rules speak of),
	// rankCount per rank. nonEmpty[k] is the set of banks with a queued
	// request of kind k (geometry is validated <= 64 banks).
	banks     []bankQ
	seq       uint64 // last arrival stamp handed out
	n         [2]int
	nonEmpty  [2]uint64
	rankCount []int
	// rankBanks[r] is the set of rank r's banks: a scan visits one rank's
	// candidates together, so the rank's terms are looked at once and can
	// rule them all out at once.
	rankBanks []uint64

	// The cached scheduling decisions (settle): which command each bank
	// wants, as opposed to when it is legal. stale is the set of banks whose
	// lists, open row or hit count changed since their decision was taken;
	// the candidate sets below describe the other banks and are what a
	// scheduling pass iterates. colCand[k]: a covered open-row request of
	// kind k under the hit cap (bankQ.colPos). closeCand: open with no such
	// request of either kind — the row has no beneficiary. fhCand[k]: a
	// kind-k request targets the partially open row and markFalseHits has
	// not been through all of them yet. (The banks whose kind-k head needs
	// an ACT or a PRE are the non-empty ones in no colCand: prepCand.)
	stale     uint64
	colCand   [2]uint64
	closeCand uint64
	fhCand    [2]uint64

	// terms holds each rank's share of command readiness for the current
	// pass only (termsOK is cleared at the top of every pass: no readiness
	// time survives one — DESIGN "Scheduler index" rule 1).
	terms   []rankTerms
	termsOK uint64

	drain    bool
	forwards []*request // reads served from the write queue

	// freeReq recycles request structs: a request dies when it is serviced
	// (leaves its queue or the forwards list and its callback returned),
	// so the pool's high-water mark is the queue depth.
	freeReq *request
}

// allocReq returns a request of kind k for l arriving at arrive, otherwise
// zeroed (fresh allocations are zero by construction, recycled ones are
// zeroed by releaseReq), so enqueue paths only assign the fields they use.
func (cc *chanCtl) allocReq(k core.AccessKind, l Loc, arrive int64) *request {
	r := cc.freeReq
	if r == nil {
		r = &request{}
	} else {
		cc.freeReq, r.nextFree = r.nextFree, nil
	}
	r.kind, r.loc, r.arrive, r.mark = k, l, arrive, arrive
	return r
}

func (cc *chanCtl) releaseReq(r *request) {
	*r = request{nextFree: cc.freeReq}
	cc.freeReq = r
}

// bankQ is one bank's share of the channel's queues plus the summary the
// scheduler reads instead of walking them.
type bankQ struct {
	rank, bank int
	// q holds the queued requests per kind in arrival order (strictly
	// increasing seq): FR-FCFS is "oldest first" within a bank, and the
	// oldest candidate across banks is the one with the smallest seq.
	q [2][]*request
	// same counts, per kind, the queued requests that target the bank's
	// open row (zero while the bank is closed). Maintained at exactly the
	// points where a list or the open row changes: push, remove, a
	// successful ACT (recount), every precharge including an
	// auto-precharging column (closeRow), and RestoreState (re-push). A
	// write merge changes masks, never rows, so it leaves same alone.
	same [2]int
	hits int // column accesses since the row opened (the MaxRowHits cap)
	// The bank's cached decision, valid while the bank is not stale: colPos[k]
	// is the position in q[k] of the column candidate (bank in colCand[k]),
	// act[k] the activation mask for q[k][0] (bank closed, q[k] non-empty).
	// colSeq[k] and headSeq[k] are the arrival stamps of q[k][colPos[k]] and
	// q[k][0], so a scan compares candidates without dereferencing them.
	colPos          [2]int
	act             [2]core.Mask
	colSeq, headSeq [2]uint64
}

// rankTerms is one rank's share of command readiness at the current pass
// cycle, with the weighted-tFAW term filled in per activation granularity
// on first use (fawOK says which).
type rankTerms struct {
	dram.RankTerms
	faw   [core.WordsPerLine + 1]int64
	fawOK uint16
}

// covered returns the position in q[k] of the oldest request other than
// skip that targets row and that the open mask covers (a row-buffer hit),
// or -1.
func (b *bankQ) covered(k core.AccessKind, row int, mask core.Mask, skip *request) int {
	for i, req := range b.q[k] {
		if req != skip && req.loc.Row == row &&
			core.ClassifyAccess(true, true, mask, k, req.need()) == core.Hit {
			return i
		}
	}
	return -1
}

func (cc *chanCtl) bankOf(l Loc) int { return l.Rank*cc.cfg.Geom.Banks + l.Bank }

func (cc *chanCtl) rankHasWork(rank int) bool { return cc.rankCount[rank] > 0 }

// queuedWrite returns the queued write to l, or nil (writes to a queued
// line merge, so there is at most one).
func (cc *chanCtl) queuedWrite(l Loc) *request {
	for _, w := range cc.banks[cc.bankOf(l)].q[core.Write] {
		if w.loc == l {
			return w
		}
	}
	return nil
}

// push appends req to its bank's list, stamping its arrival order.
func (cc *chanCtl) push(req *request) {
	cc.seq++
	req.seq = cc.seq
	k, bi := req.kind, cc.bankOf(req.loc)
	b := &cc.banks[bi]
	b.q[k] = append(b.q[k], req)
	cc.n[k]++
	cc.rankCount[req.loc.Rank]++
	cc.nonEmpty[k] |= 1 << uint(bi)
	cc.stale |= 1 << uint(bi)
	if row, _, open := cc.ch.OpenRow(req.loc.Rank, req.loc.Bank); open && row == req.loc.Row {
		b.same[k]++
	}
}

// remove takes the request at position i out of its bank's list. Only a
// column command removes a request, so it targeted the open row: if the
// column auto-precharged the row is closed now, otherwise the row has one
// more access against the cap and one request fewer waiting for it.
func (cc *chanCtl) remove(req *request, i int, autoPre bool) {
	k, bi := req.kind, cc.bankOf(req.loc)
	b := &cc.banks[bi]
	q := b.q[k]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	b.q[k] = q[:len(q)-1]
	cc.n[k]--
	cc.rankCount[req.loc.Rank]--
	cc.stale |= 1 << uint(bi)
	if len(b.q[k]) == 0 {
		cc.nonEmpty[k] &^= 1 << uint(bi)
	}
	if autoPre {
		cc.closeRow(bi)
		return
	}
	b.hits++
	b.same[k]--
}

// recount rebuilds bank bi's open-row summary after an ACT opened row.
func (cc *chanCtl) recount(bi, row int) {
	b := &cc.banks[bi]
	cc.stale |= 1 << uint(bi)
	for k := range b.q {
		n := 0
		for _, req := range b.q[k] {
			if req.loc.Row == row {
				n++
			}
		}
		b.same[k] = n
	}
}

// closeRow resets bank bi's hit count and open-row summary: its row just
// closed.
func (cc *chanCtl) closeRow(bi int) {
	cc.stale |= 1 << uint(bi)
	cc.banks[bi].hits = 0
	cc.banks[bi].same = [2]int{}
}

// queued returns the queued requests of kind k in arrival order — the
// flat queue the bank lists partition.
func (cc *chanCtl) queued(k core.AccessKind) []*request {
	out := make([]*request, 0, cc.n[k])
	for i := range cc.banks {
		out = append(out, cc.banks[i].q[k]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// completeForwards completes the write-forwarded reads one memory cycle
// after their enqueue.
func (cc *chanCtl) completeForwards(mem int64) {
	for i, f := range cc.forwards {
		cc.stats.ReadsServed++
		cc.stats.RowHitRead++ // served without any DRAM activity
		cc.stats.ReadLatencySum += mem - f.arrive
		cc.completeLat(f, mem, mem) // no DRAM command: all queue time
		f.done.Fn(cc.clk.CPUAt(mem))
		cc.forwards[i] = nil
		cc.releaseReq(f)
	}
	cc.forwards = cc.forwards[:0]
}

// updateDrain applies the watermark-driven write drain (Section 5.1.2).
func (cc *chanCtl) updateDrain(mem int64) {
	switch writes := cc.n[core.Write]; {
	case !cc.drain && writes >= cc.cfg.HighWM:
		cc.drain = true
		if cc.tracing() {
			cc.emit(mem, "drain-start", "write queue %d >= high watermark %d", writes, cc.cfg.HighWM)
		}
	case cc.drain && writes <= cc.cfg.LowWM:
		cc.drain = false
		if cc.tracing() {
			cc.emit(mem, "drain-stop", "write queue %d <= low watermark %d", writes, cc.cfg.LowWM)
		}
	}
}

// serveRequests is the requests engine's share of a scheduling pass:
// columns to open rows, then ACTs and PREs for list heads, then (except
// under open-page) the PREs of rows no queued request benefits from.
// Reports whether a command issued.
func (cc *chanCtl) serveRequests(mem int64) bool {
	cc.run(engRequests)
	// From here to the command this pass issues (which ends it) nothing
	// mutates the lists or the device: the wake loop and the refresh and
	// alert gates ran already. So decisions settled now and rank terms
	// taken at the first candidate that needs them hold for the whole pass.
	cc.settle()
	cc.termsOK = 0
	primary, secondary := core.Read, core.Write
	if cc.drain || cc.n[core.Read] == 0 {
		primary, secondary = core.Write, core.Read
	}
	// Secondary-queue columns drain ahead of primary ACT/PRE work: a
	// column to an already-open row is cheap, and it guarantees that rows
	// kept open for queued beneficiaries (see tryPrep) actually drain
	// instead of starving the bank.
	if cc.tryColumn(mem, primary) || cc.tryColumn(mem, secondary) ||
		cc.tryPrep(mem, primary) || cc.tryPrep(mem, secondary) {
		return true
	}
	if cc.cfg.Policy == OpenPage {
		return false
	}
	// Ascending bank index is rank-major, bank-minor: the first legal PRE
	// of an idle row wins and every earlier one reports when it becomes
	// legal.
	for r, set := 0, cc.closeCand; set != 0; r++ {
		group := set & cc.rankBanks[r]
		set &^= group
		if group == 0 {
			continue
		}
		gate := max(mem, cc.rankTerms(mem, r).Pre)
		if cc.pruned(mem, gate) {
			continue
		}
		for ; group != 0; group &= group - 1 {
			b := &cc.banks[bits.TrailingZeros64(group)]
			if cc.reached(mem, max(gate, cc.ch.BankTerms(r, b.bank).Pre)) && cc.precharge(mem, r, b.bank) {
				return true
			}
		}
	}
	return false
}

// pruned reports whether a candidate whose ready cycle is at least at (the
// terms computed so far) can neither issue this pass nor lower the requests
// engine's bound: the terms still to come can only raise it, and noteReady
// keeps the smaller of two bounds. Scans evaluate terms cheapest first — the
// rank's, once per rank (rankBanks), then the bank's, then tFAW — and stop at
// the first that prunes, so the bound a pass notes stays exact.
func (cc *chanCtl) pruned(mem, at int64) bool { return at > mem && at >= cc.bound[engRequests] }

// settle re-derives the cached decision of every stale bank from its lists,
// open row and hit count. Only such list-derived decisions are cached; when
// the wanted command is legal is recomputed by every pass (rankTerms), and
// every candidate that is not ready reports its exact ready cycle unless it
// cannot lower the bound (pruned). A bank absent from a candidate set is one
// the pass would have evaluated to "nothing to do here" without a noteReady.
func (cc *chanCtl) settle() {
	for set := cc.stale; set != 0; set &= set - 1 {
		bi := bits.TrailingZeros64(set)
		bit := uint64(1) << uint(bi)
		b := &cc.banks[bi]
		row, mask, open := cc.ch.OpenRow(b.rank, b.bank)
		benefits := false // a queued request hits the open row within the cap
		for k := range b.q {
			cc.colCand[k] &^= bit
			if open && b.hits < cc.cfg.MaxRowHits && b.same[k] > 0 {
				if pos := b.covered(core.AccessKind(k), row, mask, nil); pos >= 0 {
					b.colPos[k], b.colSeq[k] = pos, b.q[k][pos].seq
					cc.colCand[k] |= bit
					benefits = true
				}
			}
			cc.fhCand[k] &^= bit
			if open && !mask.IsFull() && b.same[k] > 0 {
				cc.fhCand[k] |= bit
			}
			if len(b.q[k]) > 0 {
				b.headSeq[k] = b.q[k][0].seq
				if !open {
					b.act[k] = cc.actMask(b, b.q[k][0])
				}
			}
		}
		cc.closeCand &^= bit
		if open && !benefits {
			cc.closeCand |= bit
		}
	}
	cc.stale = 0
}

// prepCand returns the banks whose kind-k list head needs an ACT (closed
// bank) or a PRE (bank in closeCand): the non-empty ones whose open row, if
// any, has no beneficiary left. A row with one drains first (bounded by the
// hit cap), so read/write phase switches do not waste fresh activations —
// and a head that itself hits is waiting for the column path.
func (cc *chanCtl) prepCand(k core.AccessKind) uint64 {
	return cc.nonEmpty[k] &^ (cc.colCand[core.Read] | cc.colCand[core.Write])
}

// rankTerms returns rank r's share of command readiness at the pass cycle
// mem, computing it on the pass's first request for it.
func (cc *chanCtl) rankTerms(mem int64, r int) *rankTerms {
	if cc.termsOK&(1<<uint(r)) == 0 {
		cc.termsOK |= 1 << uint(r)
		cc.ch.RankTerms(mem, r, &cc.terms[r].RankTerms)
		cc.terms[r].fawOK = 0
	}
	return &cc.terms[r]
}

// fawTerm returns the tFAW term of an ACT of mask m in rank r, computed once
// per pass and activation granularity (all the weight depends on).
func (cc *chanCtl) fawTerm(t *rankTerms, r int, m core.Mask) int64 {
	g := uint(m.Granularity())
	if t.fawOK&(1<<g) == 0 {
		t.fawOK |= 1 << g
		t.faw[g] = cc.ch.FAWReadyAt(r, m, cc.cfg.Scheme.halfDRAMOrg())
	}
	return t.faw[g]
}

// writeFrac returns the fraction of the line's words transferred for a
// write: PRA schemes drive only dirty words (Section 4.1.2); FGA halves
// the bus rate instead.
func (cc *chanCtl) writeFrac(req *request) float64 {
	if !cc.cfg.Scheme.praWrites() || cc.cfg.NoPartialIO {
		return cc.cfg.Scheme.ioFrac()
	}
	return req.need().Fraction()
}

// tryColumn issues the oldest ready column command of kind k for a covered
// open-row request, honoring the open-row access cap. Only banks in
// colCand[k] hold a candidate — their oldest covered request — and all
// same-kind requests to one bank share one readiness time, so the ready
// candidate with the smallest seq is the one an arrival-order walk of the
// whole queue would reach first. A not-ready candidate reports its exact
// ready time to noteReady (unless pruned): those times set nextWake when the
// pass issues nothing, and a wake later than the true one would delay a
// command. Once a ready candidate is held the pass will issue, the bounds
// are discarded, and younger candidates need no evaluation.
func (cc *chanCtl) tryColumn(mem int64, k core.AccessKind) bool {
	var (
		win     *bankQ
		winSeq  = ^uint64(0)
		winBank dram.CmdTerms
	)
	for r, set := 0, cc.colCand[k]; set != 0; r++ {
		group := set & cc.rankBanks[r]
		set &^= group
		if group == 0 || cc.refPending[r] {
			continue
		}
		rank := cc.rankTerms(mem, r)
		gate := max(mem, rank.Read)
		if k == core.Write {
			gate = max(mem, rank.Write)
		}
		if cc.pruned(mem, gate) {
			continue
		}
		for ; group != 0; group &= group - 1 {
			b := &cc.banks[bits.TrailingZeros64(group)]
			if b.colSeq[k] > winSeq {
				continue
			}
			bank := cc.ch.BankTerms(r, b.bank)
			at := max(gate, bank.Read)
			if k == core.Write {
				at = max(gate, bank.Write)
			}
			if cc.reached(mem, at) {
				win, winSeq, winBank = b, b.colSeq[k], bank
			}
		}
	}
	return win != nil && cc.issueColumn(mem, win.q[k][win.colPos[k]], win.colPos[k], winBank)
}

// issueColumn issues the column command for req, position i of its bank's
// list, whose bank terms say with the pass's rank terms that it is legal at
// mem. The same parts explain the command's wait by constraint family for
// the attribution sweep; the device re-checks legality on issue. Reports
// whether the command issued.
func (cc *chanCtl) issueColumn(mem int64, req *request, i int, bank dram.CmdTerms) bool {
	l := req.loc
	burst := cc.cfg.Scheme.burstCycles(cc.cfg.Timing.TBURST)
	_, mask, _ := cc.ch.OpenRow(l.Rank, l.Bank)
	autoPre := cc.autoPrecharge(req, mask)
	var (
		terms dram.LatTerms // for the attribution sweep, taken before the command
		done  int64         // end of the data phase
		err   error
	)
	if req.kind == core.Read {
		if cc.cfg.LatBreak {
			cc.rankTerms(mem, l.Rank).ReadLatTerms(mem, bank, &terms)
		}
		done, err = cc.ch.Read(mem, l.Rank, l.Bank, burst, cc.cfg.Scheme.ioFrac(), autoPre)
	} else {
		if cc.cfg.LatBreak {
			cc.rankTerms(mem, l.Rank).WriteLatTerms(mem, bank, &terms)
		}
		done, err = cc.ch.Write(mem, l.Rank, l.Bank, burst, cc.writeFrac(req), autoPre)
	}
	if err != nil {
		return false
	}
	if req.kind == core.Read {
		cc.stats.ReadsServed++
		cc.stats.ReadLatencySum += done - req.arrive
		if !req.activated {
			cc.stats.RowHitRead++
		}
	} else {
		cc.stats.WritesServed++
		cc.stats.WriteLatencySum += done - req.arrive
		if !req.activated {
			cc.stats.RowHitWrite++
		}
	}
	cc.remove(req, i, autoPre)
	if !cc.rankHasWork(l.Rank) {
		cc.lastWork[l.Rank] = mem // the rank's idle clock starts
	}
	cc.sweepWait(req, mem, &terms)
	cc.completeLat(req, mem, done)
	if req.kind == core.Read {
		req.done.Fn(cc.clk.CPUAt(done))
	}
	cc.releaseReq(req)
	return true
}

// autoPrecharge decides whether a column access should close the row:
// always under the restricted policy; under the relaxed policy only when
// no queued request would hit the (possibly partial) open row within the
// access cap.
func (cc *chanCtl) autoPrecharge(req *request, openMask core.Mask) bool {
	if cc.cfg.Policy == RestrictedClose {
		return true
	}
	b := &cc.banks[cc.bankOf(req.loc)]
	if b.hits+1 >= cc.cfg.MaxRowHits {
		return true
	}
	if cc.cfg.Policy == OpenPage {
		return false // rows stay open until a conflict or the hit cap
	}
	// req itself is still queued, so a count of 1 means nobody else.
	if b.same[core.Read]+b.same[core.Write] <= 1 {
		return true
	}
	if openMask.IsFull() {
		return false // any same-row request hits a full row
	}
	return b.covered(core.Read, req.loc.Row, openMask, req) < 0 &&
		b.covered(core.Write, req.loc.Row, openMask, req) < 0
}

// actMask computes the activation mask for a request (Section 5.2.1: PRA
// masks of queued same-row writes are ORed; a queued same-row read forces
// a full activation).
func (cc *chanCtl) actMask(b *bankQ, req *request) core.Mask {
	if !cc.cfg.Scheme.praWrites() || req.kind == core.Read {
		return core.FullMask
	}
	for _, o := range b.q[core.Read] {
		if o.loc.Row == req.loc.Row {
			return core.FullMask
		}
	}
	m := req.need()
	for _, o := range b.q[core.Write] {
		if o.loc.Row == req.loc.Row {
			m = m.Union(o.need())
		}
	}
	return m
}

// tryPrep progresses the oldest request of kind k that needs an ACT or a
// PRE. Only the oldest request per bank matters (FCFS within a bank), so
// each bank in prepCand(k) offers its list head, and the head with the
// smallest seq whose command is legal now is the one an arrival-order walk
// would issue for. Readiness reporting follows the same rule as in
// tryColumn.
func (cc *chanCtl) tryPrep(mem int64, k core.AccessKind) bool {
	var (
		win     *bankQ
		winSeq  = ^uint64(0)
		winBank int
		winT    dram.CmdTerms
	)
	for r, set := 0, cc.prepCand(k); set != 0; r++ {
		group := set & cc.rankBanks[r]
		set &^= group
		if group == 0 || cc.refPending[r] {
			continue
		}
		rank := cc.rankTerms(mem, r)
		pre, act := max(mem, rank.Pre), max(mem, rank.Act) // pre <= act: the gate alone
		if cc.pruned(mem, pre) {
			continue
		}
		if cc.pruned(mem, act) {
			group &= cc.closeCand // only the PREs are left
		}
		for ; group != 0; group &= group - 1 {
			bi := bits.TrailingZeros64(group)
			b := &cc.banks[bi]
			if b.headSeq[k] > winSeq {
				continue
			}
			bank := cc.ch.BankTerms(r, b.bank)
			var at int64
			if cc.closeCand&(1<<uint(bi)) != 0 { // open, no beneficiary: conflict it away
				at = max(pre, bank.Pre)
			} else if at = max(act, bank.Act); !cc.pruned(mem, at) {
				at = max(at, cc.fawTerm(rank, r, b.act[k]))
			}
			if cc.reached(mem, at) {
				win, winSeq, winBank, winT = b, b.headSeq[k], bi, bank
			}
		}
	}
	if win == nil {
		cc.markFalseHits(k, ^uint64(0))
		return false
	}
	cc.markFalseHits(k, winSeq)
	head := win.q[k][0]
	l := head.loc
	if cc.closeCand&(1<<uint(winBank)) != 0 {
		return cc.precharge(mem, l.Rank, l.Bank)
	}
	mask := win.act[k]
	var terms dram.LatTerms // for the attribution sweep; Activate re-checks legality
	if cc.cfg.LatBreak {
		rank := cc.rankTerms(mem, l.Rank)
		rank.ActLatTerms(mem, winT, cc.fawTerm(rank, l.Rank, mask), &terms)
	}
	if err := cc.ch.Activate(mem, l.Rank, l.Bank, l.Row, mask, cc.cfg.Scheme.halfDRAMOrg()); err != nil {
		return false
	}
	win.hits = 0
	cc.recount(winBank, l.Row)
	head.activated = true
	cc.sweepWait(head, mem, &terms)
	if k == core.Read {
		cc.stats.ActsForReads++
	} else {
		cc.stats.ActsForWrites++
	}
	cc.mitOnAct(mem, l)
	return true
}

// markFalseHits does the false-hit accounting of one tryPrep pass: every
// queued request of kind k that observes its row partially open without
// the words it needs is counted once, even while older same-bank requests
// are still in line (Section 5.2.1) — in a conventional DRAM it would have
// hit the open row. An arrival-order walk reaches a request only before it
// issues, so the pass marks requests up to the winner's seq (limit; all of
// them when nothing issues). Only banks with a queued request on a
// partially open row can hold one (fhCand), and a bank marked in full — limit
// = all, rank not frozen for a refresh — has none left until it goes stale.
func (cc *chanCtl) markFalseHits(k core.AccessKind, limit uint64) {
	for set := cc.fhCand[k]; set != 0; set &= set - 1 {
		bi := bits.TrailingZeros64(set)
		b := &cc.banks[bi]
		if cc.refPending[b.rank] {
			continue
		}
		if limit == ^uint64(0) {
			cc.fhCand[k] &^= 1 << uint(bi)
		}
		row, mask, _ := cc.ch.OpenRow(b.rank, b.bank)
		for _, req := range b.q[k] {
			if req.seq > limit {
				break
			}
			if req.loc.Row == row && !req.falseHit &&
				core.ClassifyAccess(true, true, mask, k, req.need()) == core.FalseHit {
				req.falseHit = true
				if k == core.Read {
					cc.stats.FalseHitRead++
				} else {
					cc.stats.FalseHitWrite++
				}
			}
		}
	}
}
