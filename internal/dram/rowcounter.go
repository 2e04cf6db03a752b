package dram

import (
	"fmt"
	"sort"
)

// Per-row activation counting and Refresh Management (DESIGN.md §4g).
//
// The channel can keep a PRAC-style per-row activation counter table,
// windowed by refresh: every ACT increments its row's counter, and a
// refresh of the row's bank clears the counts for that bank (the rows are
// rewritten, so the disturbance window restarts). The table is bounded —
// real controllers cannot afford 32K counters per bank either — using a
// Misra-Gries-style overflow policy that can overcount but never
// undercount a row:
//
//   - a tracked row's ACT increments its exact counter;
//   - an ACT to an untracked row inserts it at spill+1 when the table has
//     space (the row may have been evicted earlier, so spill is its
//     conservative floor);
//   - when the table is full, the spill counter absorbs the ACT instead
//     (Stats.RowSpills counts these), and every untracked row reports
//     spill as its count.
//
// RefreshManage models the RFM command: it refreshes the neighbours of
// the bank's highest-count row, blocking the bank for tRFM, and clears
// that row's counter. Counter state is simulation state (it survives
// ResetStats and is checkpointed), not a statistic.

// rowTable is one bank's bounded counter table.
type rowTable struct {
	counts map[int]int64 // row -> ACTs since this bank's last refresh
	spill  int64         // conservative floor for untracked rows
}

// rowCounters is the per-channel table set, indexed rank*Banks+bank.
type rowCounters struct {
	cap    int // max tracked rows per bank
	tables []rowTable
}

func newRowCounters(capPerBank, nTables int) *rowCounters {
	rc := &rowCounters{cap: capPerBank, tables: make([]rowTable, nTables)}
	for i := range rc.tables {
		rc.tables[i].counts = make(map[int]int64)
	}
	return rc
}

// onAct records one activation of row in table i and reports whether the
// table overflowed into the spill counter.
func (rc *rowCounters) onAct(i, row int) (spilled bool) {
	t := &rc.tables[i]
	if n, ok := t.counts[row]; ok {
		t.counts[row] = n + 1
		return false
	}
	if len(t.counts) < rc.cap {
		t.counts[row] = t.spill + 1
		return false
	}
	t.spill++
	return true
}

// count returns the (conservative) activation count of row in table i.
func (rc *rowCounters) count(i, row int) int64 {
	t := &rc.tables[i]
	if n, ok := t.counts[row]; ok {
		return n
	}
	return t.spill
}

// reset clears table i (the bank was refreshed).
func (rc *rowCounters) reset(i int) {
	t := &rc.tables[i]
	clear(t.counts)
	t.spill = 0
}

// victim returns the highest-count tracked row of table i (lowest row id
// on ties, so the choice is deterministic under map iteration).
func (rc *rowCounters) victim(i int) (row int, n int64, ok bool) {
	t := &rc.tables[i]
	row = -1
	for r, c := range t.counts {
		if !ok || c > n || (c == n && r < row) {
			row, n, ok = r, c, true
		}
	}
	return row, n, ok
}

// mitigate applies one RFM to table i: the victim row's counter clears.
// If the spill floor has caught up with (or passed) every tracked count,
// the aggressor may be an evicted row the table can no longer name; the
// model optimistically assumes the RFM covered it and clears the spill
// too — otherwise a saturated table would alert on every subsequent ACT.
func (rc *rowCounters) mitigate(i int) {
	t := &rc.tables[i]
	row, n, ok := rc.victim(i)
	if ok {
		delete(t.counts, row)
	}
	if !ok || t.spill >= n {
		t.spill = 0
	}
}

// TrackRows enables per-row activation counting with a bounded table of
// capPerBank rows per bank (capPerBank <= 0 disables tracking). Call
// before the first command; enabling costs one map operation per ACT,
// disabled tracking costs nothing.
func (c *Channel) TrackRows(capPerBank int) {
	if capPerBank <= 0 {
		c.rowCtr = nil
		return
	}
	c.rowCtr = newRowCounters(capPerBank, c.G.Ranks*c.G.Banks)
}

// RowActCount returns row's activation count since bank (r,b) was last
// refreshed. Untracked rows report the bank's spill floor; with tracking
// disabled every row reports 0.
func (c *Channel) RowActCount(r, b, row int) int64 {
	if c.rowCtr == nil {
		return 0
	}
	return c.rowCtr.count(r*c.G.Banks+b, row)
}

// RowCounts returns a copy of bank (r,b)'s tracked counter table (nil with
// tracking disabled) — a test and telemetry dump, not a hot path.
func (c *Channel) RowCounts(r, b int) map[int]int64 {
	if c.rowCtr == nil {
		return nil
	}
	t := &c.rowCtr.tables[r*c.G.Banks+b]
	m := make(map[int]int64, len(t.counts))
	for row, n := range t.counts {
		m[row] = n
	}
	return m
}

// RowSpill returns bank (r,b)'s spill floor: the count every untracked
// row is conservatively assumed to have.
func (c *Channel) RowSpill(r, b int) int64 {
	if c.rowCtr == nil {
		return 0
	}
	return c.rowCtr.tables[r*c.G.Banks+b].spill
}

// rowCtrOnAct feeds one activation into the counter table.
func (c *Channel) rowCtrOnAct(r, b, row int) {
	if c.rowCtr == nil {
		return
	}
	if c.rowCtr.onAct(r*c.G.Banks+b, row) {
		c.Stats.RowSpills++
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
		c.rowCtr.reset(r*c.G.Banks + i)
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
	c.rowCtr.mitigate(r*c.G.Banks + b)
	c.Stats.RFMs++
	c.emit(CmdEvent{At: at, Kind: CmdRFM, Rank: r, Bank: b})
	return nil
}

// sortedRows returns table i's tracked rows in ascending order (the
// deterministic iteration order serialization needs).
func (rc *rowCounters) sortedRows(i int) []int {
	t := &rc.tables[i]
	rows := make([]int, 0, len(t.counts))
	for row := range t.counts {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	return rows
}
