package dram

import (
	"fmt"
	"maps"
)

// Per-row activation counting and Refresh Management (DESIGN.md §4g).
//
// The channel can keep PRAC-style per-row activation counters, windowed
// by refresh: every ACT increments its row's counter, and a refresh of
// the row's bank clears the counts for that bank (the rows are rewritten,
// so the disturbance window restarts). As in a PRAC device, where every
// row carries its own counter, the count is exact: one row → ACTs map per
// bank, holding only the rows activated since the bank's last refresh.
//
// RefreshManage models the RFM command: it refreshes the neighbours of
// the bank's highest-count row, blocking the bank for tRFM, and clears
// that row's counter. Counter state is simulation state (it survives
// ResetStats and is checkpointed), not a statistic.

// rowCounters holds one row → ACTs-since-refresh map per bank, indexed
// rank*Banks+bank.
type rowCounters []map[int]int64

func newRowCounters(nBanks int) rowCounters {
	rc := make(rowCounters, nBanks)
	for i := range rc {
		rc[i] = make(map[int]int64)
	}
	return rc
}

// victim returns the highest-count row of table i (lowest row id on ties,
// so the choice is deterministic under map iteration), or -1 for an empty
// table. Counts are at least 1, so the first row always beats n = 0.
func (rc rowCounters) victim(i int) int {
	row, n := -1, int64(0)
	for r, c := range rc[i] {
		if c > n || (c == n && r < row) {
			row, n = r, c
		}
	}
	return row
}

// TrackRows enables per-row activation counting. Call before the first
// command; tracking costs one map operation per ACT, and a channel that
// never enables it pays nothing.
func (c *Channel) TrackRows() {
	c.rowCtr = newRowCounters(c.G.Ranks * c.G.Banks)
}

// RowActCount returns row's activation count since bank (r,b) was last
// refreshed; with tracking disabled every row reports 0.
func (c *Channel) RowActCount(r, b, row int) int64 {
	if c.rowCtr == nil {
		return 0
	}
	return c.rowCtr[r*c.G.Banks+b][row]
}

// RowCounts returns a copy of bank (r,b)'s counter table (nil with
// tracking disabled) — a test and telemetry dump, not a hot path.
func (c *Channel) RowCounts(r, b int) map[int]int64 {
	if c.rowCtr == nil {
		return nil
	}
	return maps.Clone(c.rowCtr[r*c.G.Banks+b])
}

// rowCtrOnAct feeds one activation into the counter table.
func (c *Channel) rowCtrOnAct(r, b, row int) {
	if c.rowCtr != nil {
		c.rowCtr[r*c.G.Banks+b][row]++
	}
}

// rowCtrReset clears the counters of the banks a refresh of bank b of rank
// r covers (every bank for allBanks: an all-bank refresh, or self-refresh —
// which runs the device's internal refresh engine).
func (c *Channel) rowCtrReset(r, b int) {
	if c.rowCtr == nil {
		return
	}
	lo, hi := c.banks(b)
	for i := lo; i < hi; i++ {
		clear(c.rowCtr[r*c.G.Banks+i])
	}
}

// trfm returns the effective RFM blocking time: Timing.TRFM, defaulting
// to the per-bank refresh time (RFM refreshes a handful of victim rows,
// comparable to one bank's refresh burst).
func (c *Channel) trfm() int64 {
	switch {
	case c.T.TRFM > 0:
		return int64(c.T.TRFM)
	case c.T.TRFCPB > 0:
		return int64(c.T.TRFCPB)
	default:
		return int64(c.T.TRFC)
	}
}

// RFMReadyAt returns the earliest cycle an RFM may be issued to bank
// (r,b); the bank must be precharged first (ok = false while it holds an
// open row). For a rank still in power-down, the result assumes a Wake
// issued at the query time.
func (c *Channel) RFMReadyAt(now int64, r, b int) (int64, bool) {
	return c.refreshReadyAt(now, r, b)
}

// RefreshManage issues an RFM to bank (r,b): the device refreshes the
// victims of the bank's highest-count row, blocking the bank for tRFM,
// and that row's counter clears. The refresh schedule (tREFI deadlines)
// is unaffected — RFM is extra work on top of regular refresh. Energy is
// charged like a per-bank refresh burst of tRFM.
func (c *Channel) RefreshManage(at int64, r, b int) error {
	if c.rowCtr == nil {
		return fmt.Errorf("dram: RFM without row tracking enabled")
	}
	ready, _ := c.RFMReadyAt(at, r, b)
	if err := c.admit("RFM", at, ready, r, b, false); err != nil {
		return err
	}
	c.block(at, r, b, c.trfm())
	i := r*c.G.Banks + b
	delete(c.rowCtr[i], c.rowCtr.victim(i))
	c.Stats.RFMs++
	c.emit(CmdEvent{At: at, Kind: CmdRFM, Rank: r, Bank: b})
	return nil
}
