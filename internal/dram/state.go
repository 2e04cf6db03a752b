package dram

import (
	"pradram/internal/checkpoint"
)

// Checkpointing (DESIGN.md §4e). The channel serializes bus/command state
// and the per-rank, per-bank timing windows. Statistics, per-bank command
// tallies, and accumulated energy are NOT serialized: checkpoints are
// taken at the warmup boundary, immediately after ResetStats (which also
// flushes pending background spans, so bgFrom == acctUpTo there — but the
// fields are written anyway to keep the round trip exact at any point).

// state states the channel's saved fields once, in payload order.
func (c *Channel) state(k *checkpoint.Codec) {
	k.I64(&c.cmdFree)
	k.I64(&c.busFree)
	checkpoint.U8(k, &c.busDir)
	if c.busDir > BusWrite {
		k.Fail("dram: bus direction %d", c.busDir)
	}
	k.Int(&c.busRank)
	if c.busRank < 0 || c.busRank >= c.G.Ranks {
		k.Fail("dram: bus rank %d of %d", c.busRank, c.G.Ranks)
	}
	k.I64(&c.acctUpTo)
	for ri := range c.ranks {
		rk := &c.ranks[ri]
		k.I64(&rk.rrdAllowed)
		k.I64(&rk.colAllowed)
		k.I64(&rk.rdAfterWr)
		rk.faw = checkpoint.Slice(k, rk.faw, func(e *fawEntry) {
			k.I64(&e.t)
			k.F64(&e.w)
		})
		k.I64(&rk.refUntil)
		k.I64(&rk.nextRefresh)
		k.Int(&rk.refBank)
		if rk.refBank < 0 || rk.refBank >= c.G.Banks {
			k.Fail("dram: rank %d refresh bank %d of %d", ri, rk.refBank, c.G.Banks)
		}
		checkpoint.U8(k, &rk.pd)
		if rk.pd > PDSelfRefresh {
			k.Fail("dram: rank %d power-down state %d", ri, rk.pd)
		}
		k.I64(&rk.pdEnteredAt)
		k.I64(&rk.pdExit)
		k.I64(&rk.pdReady)
		k.I64(&rk.bgFrom)
		open := 0 // openCount, derived from the banks, not saved
		for bi := range rk.banks {
			bk := &rk.banks[bi]
			k.Bool(&bk.open)
			k.Int(&bk.row)
			checkpoint.U8(k, &bk.mask)
			k.I64(&bk.actAllowed)
			k.I64(&bk.rdAllowed)
			k.I64(&bk.wrAllowed)
			k.I64(&bk.preAllowed)
			if bk.open {
				if bk.row < 0 || bk.row >= c.G.Rows {
					k.Fail("dram: rank %d bank %d open row %d of %d", ri, bi, bk.row, c.G.Rows)
				}
				if bk.mask == 0 {
					k.Fail("dram: rank %d bank %d open with empty mask", ri, bi)
				}
				open++
			}
		}
		if k.Restores() {
			rk.openCount = open
		}
		switch rk.pd {
		case PDPrechargeFast, PDPrechargeSlow, PDSelfRefresh:
			if open > 0 {
				k.Fail("dram: rank %d in %v with %d open banks", ri, rk.pd, open)
			}
		case PDActive:
			if open == 0 {
				k.Fail("dram: rank %d in active power-down with no open banks", ri)
			}
		}
	}
	// Per-row activation counter tables (rowcounter.go): counter contents
	// are simulation state, not statistics — a restored run must alert and
	// RFM at exactly the cycles the monolithic run would (ckptFormat v3).
	tracking := c.rowCtr != nil
	k.Bool(&tracking)
	if tracking != (c.rowCtr != nil) {
		k.Fail("dram: checkpoint row tracking %v, channel has %v", tracking, c.rowCtr != nil)
		return
	}
	for i, t := range c.rowCtr {
		checkpoint.Map(k, t, func(row *int, n *int64) {
			k.Int(row)
			k.I64(n)
			if *row < 0 || *row >= c.G.Rows || *n <= 0 {
				k.Fail("dram: row counter table %d row %d count %d (rows %d)", i, *row, *n, c.G.Rows)
			}
		}, "dram: row counter table %d row", i)
	}
}

// SaveState appends the channel's dynamic state.
func (c *Channel) SaveState(w *checkpoint.Writer) { c.state(checkpoint.Saving(w)) }

// RestoreState decodes a SaveState payload into a copy of the channel and
// returns a commit that installs it; on error the channel is untouched.
func (c *Channel) RestoreState(r *checkpoint.Reader) (func(), error) {
	t := *c
	t.ranks = make([]rankState, len(c.ranks))
	for ri := range t.ranks {
		t.ranks[ri].banks = make([]bankState, c.G.Banks)
	}
	if c.rowCtr != nil {
		t.rowCtr = newRowCounters(len(c.rowCtr))
	}
	t.state(checkpoint.Restoring(r))
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() { *c = t }, nil
}
