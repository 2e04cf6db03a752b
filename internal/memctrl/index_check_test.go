package memctrl

import (
	"fmt"
	"testing"

	"pradram/internal/core"
)

// checkIndex recomputes every derived part of a channel's bank index from
// the lists and the device's open rows and reports the first disagreement:
// the counts and open-row summaries for every bank, and for every bank that
// is not stale the cached scheduling decision and its bits in the candidate
// sets, re-derived the way the pre-cache scheduling passes evaluated a bank.
func (cc *chanCtl) checkIndex() error {
	var (
		n         [2]int
		nonEmpty  [2]uint64
		rankCount [64]int
	)
	for bi := range cc.banks {
		b := &cc.banks[bi]
		if b.rank*cc.cfg.Geom.Banks+b.bank != bi {
			return fmt.Errorf("bank %d labelled rank %d bank %d", bi, b.rank, b.bank)
		}
		row, _, open := cc.ch.OpenRow(b.rank, b.bank)
		for k := range b.q {
			same, last := 0, uint64(0)
			for _, req := range b.q[k] {
				if req.seq <= last || req.seq > cc.seq {
					return fmt.Errorf("bank %d kind %d: seq %d after %d (last issued %d)", bi, k, req.seq, last, cc.seq)
				}
				last = req.seq
				if int(req.kind) != k || cc.bankOf(req.loc) != bi {
					return fmt.Errorf("bank %d kind %d holds %v request for %+v", bi, k, req.kind, req.loc)
				}
				if open && req.loc.Row == row {
					same++
				}
			}
			if same != b.same[k] {
				return fmt.Errorf("bank %d kind %d: same = %d, recount %d", bi, k, b.same[k], same)
			}
			n[k] += len(b.q[k])
			rankCount[b.rank] += len(b.q[k])
			if len(b.q[k]) > 0 {
				nonEmpty[k] |= 1 << uint(bi)
			}
		}
		if cc.stale&(1<<uint(bi)) == 0 {
			if err := cc.checkDecision(bi); err != nil {
				return fmt.Errorf("bank %d cached decision: %v", bi, err)
			}
		}
	}
	if n != cc.n || nonEmpty != cc.nonEmpty {
		return fmt.Errorf("counts %v sets %x, recomputed %v %x", cc.n, cc.nonEmpty, n, nonEmpty)
	}
	for r, want := range cc.rankCount {
		if rankCount[r] != want {
			return fmt.Errorf("rankCount[%d] = %d, recount %d", r, want, rankCount[r])
		}
	}
	if all := uint64(1)<<uint(len(cc.banks)) - 1; (cc.stale|cc.closeCand|cc.colCand[0]|cc.colCand[1]|
		cc.fhCand[0]|cc.fhCand[1])&^all != 0 {
		return fmt.Errorf("a bank set names a bank beyond %d", len(cc.banks))
	}
	return nil
}

// checkDecision re-derives bank bi's scheduling decision from its lists, hit
// count and open row, one request at a time, and compares it with the
// cached one and with the bank's membership of every candidate set.
func (cc *chanCtl) checkDecision(bi int) error {
	b := &cc.banks[bi]
	row, mask, open := cc.ch.OpenRow(b.rank, b.bank)
	has := func(set uint64) bool { return set&(1<<uint(bi)) != 0 }
	hits := func(req *request) bool {
		return core.ClassifyAccess(open, req.loc.Row == row, mask, req.kind, req.need()) == core.Hit
	}

	// Column pick: under the hit cap, the oldest request the open row covers.
	benefits := false
	for k := range b.q {
		pos := -1
		for i, req := range b.q[k] {
			if b.hits < cc.cfg.MaxRowHits && hits(req) {
				pos = i
				break
			}
		}
		benefits = benefits || pos >= 0
		if has(cc.colCand[k]) != (pos >= 0) || (pos >= 0 && b.colPos[k] != pos) {
			return fmt.Errorf("kind %d column candidate: cached %v at %d, recomputed position %d", k, has(cc.colCand[k]), b.colPos[k], pos)
		}
	}
	// Idle close: an open row that no queued request hits within the cap.
	if has(cc.closeCand) != (open && !benefits) {
		return fmt.Errorf("close candidate %v with open=%v benefits=%v", has(cc.closeCand), open, benefits)
	}
	for k := range b.q {
		// Prep pick: the head wants an ACT if the bank is closed; if it is
		// open, nothing while the head itself hits or another request
		// benefits from the row, a PRE otherwise.
		want := len(b.q[k]) > 0 && (!open || !(b.hits < cc.cfg.MaxRowHits && hits(b.q[k][0])) && !benefits)
		if got := has(cc.prepCand(core.AccessKind(k))); got != want {
			return fmt.Errorf("kind %d prep candidate %v, recomputed %v", k, got, want)
		}
		if want && !open {
			// Section 5.2.1: queued same-row writes OR their masks into the
			// activation, a queued same-row read forces the full row.
			head := b.q[k][0]
			m := core.FullMask
			if cc.cfg.Scheme.praWrites() && head.kind == core.Write {
				m = 0
				for _, o := range b.q[core.Write] {
					if o.loc.Row == head.loc.Row {
						m = m.Union(o.need())
					}
				}
				for _, o := range b.q[core.Read] {
					if o.loc.Row == head.loc.Row {
						m = core.FullMask
					}
				}
			}
			if b.act[k] != m {
				return fmt.Errorf("kind %d activation mask %08b, recomputed %08b", k, b.act[k], m)
			}
		}
		// False-hit accounting: markFalseHits visits only fhCand banks, so a
		// bank outside the set may hold no unmarked false hit, and one inside
		// it has a request on its partially open row.
		if has(cc.fhCand[k]) && !(open && !mask.IsFull() && b.same[k] > 0) {
			return fmt.Errorf("kind %d false-hit candidate with open=%v mask %08b same=%d", k, open, mask, b.same[k])
		}
		for _, req := range b.q[k] {
			if !has(cc.fhCand[k]) && !req.falseHit &&
				core.ClassifyAccess(open, req.loc.Row == row, mask, req.kind, req.need()) == core.FalseHit {
				return fmt.Errorf("kind %d not a false-hit candidate with request seq %d unmarked", k, req.seq)
			}
		}
	}
	return nil
}

// checkIndex fails the test if any channel's bank index is inconsistent.
func checkIndex(t testing.TB, c *Controller) {
	t.Helper()
	for i, cc := range c.chans {
		if err := cc.checkIndex(); err != nil {
			t.Fatalf("channel %d scheduler index: %v", i, err)
		}
	}
}
