package memctrl

import (
	"fmt"
	"testing"
)

// checkIndex recomputes every derived part of a channel's bank index from
// the lists and the device's open rows and reports the first disagreement.
func (cc *chanCtl) checkIndex() error {
	var (
		n                 [2]int
		nonEmpty, hasSame [2]uint64
		rankCount         [64]int
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
			if same > 0 {
				hasSame[k] |= 1 << uint(bi)
			}
		}
	}
	if n != cc.n || nonEmpty != cc.nonEmpty || hasSame != cc.hasSame {
		return fmt.Errorf("counts %v sets %x %x, recomputed %v %x %x", cc.n, cc.nonEmpty, cc.hasSame, n, nonEmpty, hasSame)
	}
	for r, want := range cc.rankCount {
		if rankCount[r] != want {
			return fmt.Errorf("rankCount[%d] = %d, recount %d", r, want, rankCount[r])
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
