package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"pradram/internal/core"
)

// Tests for the per-row activation counters and the RFM command
// (rowcounter.go, DESIGN.md §4g).

func trackedChannel(t *testing.T, capPerBank int) *Channel {
	t.Helper()
	c := newTestChannel(t)
	c.TrackRows(capPerBank)
	return c
}

// actRow activates a row at the earliest legal cycle and precharges it
// again, returning the precharge cycle, so counter tests can hammer one
// row repeatedly without tripping the open-bank rules.
func actRow(t *testing.T, c *Channel, now int64, r, b, row int) int64 {
	t.Helper()
	at := mustActivate(t, c, now, r, b, row, core.FullMask, false)
	pre := c.PreReadyAt(at, r, b)
	if err := c.Precharge(pre, r, b); err != nil {
		t.Fatalf("Precharge: %v", err)
	}
	return pre
}

func TestRowCounterDisabledCostsNothing(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if c.RowTracking() {
		t.Error("tracking must be off by default")
	}
	now := actRow(t, c, 0, 0, 0, 42)
	if got := c.RowActCount(0, 0, 42); got != 0 {
		t.Errorf("disabled tracking reports count %d, want 0", got)
	}
	if c.RowCounts(0, 0) != nil {
		t.Error("disabled tracking must report a nil table")
	}
	// Enabling and disabling again drops the table.
	c.TrackRows(4)
	now = actRow(t, c, now, 0, 0, 42)
	c.TrackRows(0)
	if c.RowTracking() || c.RowActCount(0, 0, 42) != 0 {
		t.Error("TrackRows(0) must disable tracking")
	}
}

func TestRowCounterCountsPerRowPerBank(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t, 8)
	now := int64(0)
	for i := 0; i < 3; i++ {
		now = actRow(t, c, now, 0, 0, 100)
	}
	now = actRow(t, c, now, 0, 0, 200)
	now = actRow(t, c, now, 1, 3, 100)
	_ = now
	for _, tc := range []struct {
		r, b, row int
		want      int64
	}{
		{0, 0, 100, 3}, {0, 0, 200, 1}, {1, 3, 100, 1},
		{0, 0, 300, 0}, // untracked, no spill: floor 0
		{0, 1, 100, 0}, // same row, different bank
	} {
		if got := c.RowActCount(tc.r, tc.b, tc.row); got != tc.want {
			t.Errorf("RowActCount(%d,%d,%d) = %d, want %d", tc.r, tc.b, tc.row, got, tc.want)
		}
	}
	if got := c.RowCounts(0, 0); !reflect.DeepEqual(got, map[int]int64{100: 3, 200: 1}) {
		t.Errorf("RowCounts(0,0) = %v", got)
	}
}

func TestRowCounterSpillNeverUndercounts(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t, 2)
	now := int64(0)
	for i := 0; i < 3; i++ {
		now = actRow(t, c, now, 0, 0, 10)
	}
	now = actRow(t, c, now, 0, 0, 11)
	// Table full: row 12's activations go to the spill counter.
	now = actRow(t, c, now, 0, 0, 12)
	now = actRow(t, c, now, 0, 0, 12)
	if got := c.RowSpill(0, 0); got != 2 {
		t.Errorf("spill = %d, want 2", got)
	}
	if c.Stats.RowSpills != 2 {
		t.Errorf("Stats.RowSpills = %d, want 2", c.Stats.RowSpills)
	}
	// The untracked row reports the spill floor — >= its true count of 2.
	if got := c.RowActCount(0, 0, 12); got != 2 {
		t.Errorf("untracked row count = %d, want spill floor 2", got)
	}
	// An RFM clears the hottest row (10), freeing a slot; the next insert
	// starts at spill+1, the conservative floor for a possibly-evicted row.
	if err := c.RefreshManage(c.cmdFree+int64(c.T.TRP), 0, 0); err != nil {
		t.Fatalf("RefreshManage: %v", err)
	}
	if got := c.RowActCount(0, 0, 10); got != 2 {
		t.Errorf("mitigated row reports %d, want spill floor 2", got)
	}
	now = actRow(t, c, now+int64(c.T.TRFM), 0, 0, 13)
	if got := c.RowActCount(0, 0, 13); got != 3 {
		t.Errorf("fresh insert after spill = %d, want spill+1 = 3", got)
	}
}

func TestRowCounterVictimTieBreak(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t, 8)
	now := actRow(t, c, 0, 0, 0, 30)
	now = actRow(t, c, now, 0, 0, 20)
	now = actRow(t, c, now, 0, 0, 25)
	_ = now
	// All counts equal: the RFM must pick the lowest row id.
	if err := c.RefreshManage(c.cmdFree+int64(c.T.TRP), 0, 0); err != nil {
		t.Fatalf("RefreshManage: %v", err)
	}
	got := c.RowCounts(0, 0)
	if _, there := got[20]; there || len(got) != 2 {
		t.Errorf("victim must be lowest row 20 on ties; table after RFM: %v", got)
	}
}

func TestRowCounterMitigateClearsSaturatedSpill(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t, 1)
	now := actRow(t, c, 0, 0, 0, 5)
	// Spill past the single tracked count: every untracked row now looks
	// as hot as the tracked one.
	for i := 0; i < 3; i++ {
		now = actRow(t, c, now, 0, 0, 6+i)
	}
	if c.RowSpill(0, 0) != 3 {
		t.Fatalf("spill = %d, want 3", c.RowSpill(0, 0))
	}
	// The RFM cannot name the true aggressor anymore; it must clear the
	// spill floor too, or every later ACT would re-alert forever.
	if err := c.RefreshManage(c.cmdFree+int64(c.T.TRP), 0, 0); err != nil {
		t.Fatalf("RefreshManage: %v", err)
	}
	if got := c.RowSpill(0, 0); got != 0 {
		t.Errorf("spill after saturated mitigate = %d, want 0", got)
	}
	if got := c.RowCounts(0, 0); len(got) != 0 {
		t.Errorf("table after mitigate = %v, want empty", got)
	}
}

func TestRFMBlocksOnlyTargetBank(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t, 8)
	now := actRow(t, c, 0, 0, 0, 7)
	deadline := c.NextRefreshAt(0)
	at, ok := c.RFMReadyAt(now, 0, 0)
	if !ok {
		t.Fatal("RFMReadyAt not ok with the bank closed")
	}
	if err := c.RefreshManage(at, 0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats.RFMs != 1 {
		t.Errorf("Stats.RFMs = %d, want 1", c.Stats.RFMs)
	}
	// The target bank is blocked for tRFM; a sibling bank is not.
	if got := c.ActReadyAt(at+1, 0, 0, core.FullMask, false); got < at+int64(c.T.TRFM) {
		t.Errorf("target bank ready at %d, want >= %d (tRFM)", got, at+int64(c.T.TRFM))
	}
	if got := c.ActReadyAt(at+1, 0, 1, core.FullMask, false); got >= at+int64(c.T.TRFM) {
		t.Errorf("sibling bank blocked until %d by an RFM to bank 0", got)
	}
	// RFM is extra work: the regular refresh schedule must not advance.
	if got := c.NextRefreshAt(0); got != deadline {
		t.Errorf("nextRefresh moved from %d to %d after RFM", deadline, got)
	}
}

func TestRFMErrors(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.RefreshManage(0, 0, 0); err == nil {
		t.Error("RFM without tracking must fail")
	}
	c.TrackRows(8)
	now := mustActivate(t, c, 0, 0, 0, 9, core.FullMask, false)
	if _, ok := c.RFMReadyAt(now, 0, 0); ok {
		t.Error("RFMReadyAt must refuse an open bank")
	}
	if err := c.RefreshManage(now+1, 0, 0); err == nil {
		t.Error("RFM to an open bank must fail")
	}
	pre := c.PreReadyAt(now, 0, 0)
	if err := c.Precharge(pre, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(pre + int64(c.T.TRP))
	c.EnterPowerDown(pre+int64(c.T.TRP), 0)
	if err := c.RefreshManage(pre+int64(c.T.TRP)+1, 0, 0); err == nil {
		t.Error("RFM to a powered-down rank must fail")
	}
}

func TestRowCounterRefreshResets(t *testing.T) {
	t.Parallel()
	t.Run("allbank", func(t *testing.T) {
		t.Parallel()
		c := trackedChannel(t, 8)
		now := actRow(t, c, 0, 0, 0, 1)
		now = actRow(t, c, now, 0, 5, 2)
		now = actRow(t, c, now, 1, 0, 3)
		at, ok := c.RefreshReadyAt(max(now, c.NextRefreshAt(0)), 0)
		if !ok {
			t.Fatal("refresh not ready")
		}
		if err := c.Refresh(at, 0); err != nil {
			t.Fatal(err)
		}
		// Every bank of rank 0 cleared; rank 1 untouched.
		if c.RowActCount(0, 0, 1) != 0 || c.RowActCount(0, 5, 2) != 0 {
			t.Error("all-bank REF must clear every bank of the rank")
		}
		if c.RowActCount(1, 0, 3) != 1 {
			t.Error("REF to rank 0 must not clear rank 1")
		}
	})
	t.Run("perbank", func(t *testing.T) {
		t.Parallel()
		c := trackedChannel(t, 8)
		c.RefMode = RefPerBank
		// Bank 0 is the round-robin target; bank 1 must survive its REFpb.
		now := actRow(t, c, 0, 0, 0, 1)
		now = actRow(t, c, now, 0, 1, 2)
		target := c.NextRefreshBank(0)
		if target != 0 {
			t.Fatalf("refresh cursor at bank %d, want 0", target)
		}
		at, ok := c.RefreshBankReadyAt(max(now, c.NextRefreshAt(0)), 0)
		if !ok {
			t.Fatal("REFpb not ready")
		}
		if err := c.RefreshBank(at, 0); err != nil {
			t.Fatal(err)
		}
		if c.RowActCount(0, 0, 1) != 0 {
			t.Error("REFpb must clear its target bank")
		}
		if c.RowActCount(0, 1, 2) != 1 {
			t.Error("REFpb must leave sibling banks' counters alone")
		}
	})
	t.Run("selfrefresh", func(t *testing.T) {
		t.Parallel()
		c := trackedChannel(t, 8)
		now := actRow(t, c, 0, 0, 0, 1)
		c.AdvanceTo(now + int64(c.T.TRP))
		if !c.EnterSelfRefresh(now+int64(c.T.TRP), 0) {
			t.Fatal("self-refresh entry refused")
		}
		if c.RowActCount(0, 0, 1) != 0 {
			t.Error("self-refresh must clear the rank's counters (the internal engine walks every row)")
		}
	})
}

// FuzzRowCounterWindow drives a random legal command stream — activations,
// precharges, refreshes (all-bank or per-bank, with and without elastic
// postpone credit), and RFMs — against a shadow model that counts every
// activation exactly, and checks the counter-table contract at every step:
//
//   - reset invariant: no count survives a refresh of its row's bank, and
//     a refresh clears nothing else;
//   - Misra-Gries invariant: the table never undercounts — every row
//     reports at least its exact activation count since the bank's last
//     refresh;
//   - exactness: while a bank's table has never overflowed (and no RFM
//     rewrote it), it matches the shadow model bit for bit.
func FuzzRowCounterWindow(f *testing.F) {
	f.Add(uint64(1), uint8(4), false, uint8(0))
	f.Add(uint64(7), uint8(1), true, uint8(4))
	f.Add(uint64(42), uint8(15), false, uint8(8))
	f.Add(uint64(9), uint8(2), true, uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, cap8 uint8, perBank bool, postpone uint8) {
		capPerBank := int(cap8%16) + 1
		c := newTestChannel(t)
		if perBank {
			c.RefMode = RefPerBank
		}
		c.MaxPostpone = int(postpone % 9)
		c.TrackRows(capPerBank)
		rng := rand.New(rand.NewSource(int64(seed)))

		nBanks := c.G.Ranks * c.G.Banks
		exact := make([]map[int]int64, nBanks) // shadow: true counts since last reset
		dirty := make([]bool, nBanks)          // table overflowed or was RFM-rewritten
		for i := range exact {
			exact[i] = make(map[int]int64)
		}
		open := make([]bool, nBanks)
		now := int64(0)

		closeBank := func(r, b int) {
			at := c.PreReadyAt(now, r, b)
			if err := c.Precharge(at, r, b); err != nil {
				t.Fatalf("Precharge(%d,%d): %v", r, b, err)
			}
			open[r*c.G.Banks+b] = false
			now = at
		}
		// refreshAt picks a legal issue cycle within the pull-in credit
		// (the elasticity window scales with the per-bank interval in
		// REFpb mode).
		interval := int64(c.T.TREFI)
		if perBank {
			interval /= int64(c.G.Banks)
		}
		refreshAt := func(ready int64, r int) int64 {
			at := ready
			if win := int64(c.MaxPostpone) * interval; win > 0 {
				at = max(at, c.NextRefreshAt(r)-rng.Int63n(win))
			} else {
				at = max(at, c.NextRefreshAt(r))
			}
			return at
		}
		checkBank := func(r, b int) {
			i := r*c.G.Banks + b
			for row, n := range exact[i] {
				if got := c.RowActCount(r, b, row); got < n {
					t.Fatalf("rank %d bank %d row %d undercounts: reported %d, exact %d",
						r, b, row, got, n)
				}
			}
			if !dirty[i] {
				if got := c.RowCounts(r, b); len(got) != len(exact[i]) || !reflect.DeepEqual(got, exact[i]) {
					t.Fatalf("rank %d bank %d diverged without overflow: table %v, exact %v",
						r, b, got, exact[i])
				}
				if s := c.RowSpill(r, b); s != 0 {
					t.Fatalf("rank %d bank %d spill %d without overflow", r, b, s)
				}
			}
		}

		for i := 0; i < 1500; i++ {
			r := rng.Intn(c.G.Ranks)
			b := rng.Intn(c.G.Banks)
			bi := r*c.G.Banks + b
			switch op := rng.Intn(10); {
			case op < 5: // activate (precharging first if needed)
				if open[bi] {
					closeBank(r, b)
				}
				row := rng.Intn(3 * capPerBank) // small row set forces overflow
				at := c.ActReadyAt(now, r, b, core.FullMask, false)
				if err := c.Activate(at, r, b, row, core.FullMask, false); err != nil {
					t.Fatalf("step %d Activate: %v", i, err)
				}
				open[bi] = true
				now = at
				exact[bi][row]++
				if _, tracked := c.RowCounts(r, b)[row]; !tracked {
					dirty[bi] = true // spilled
				}
			case op < 7: // precharge something open
				if open[bi] {
					closeBank(r, b)
				}
			case op < 9: // refresh rank r (its due bank for per-bank mode)
				if perBank {
					tb := c.NextRefreshBank(r)
					if open[r*c.G.Banks+tb] {
						closeBank(r, tb)
					}
					ready, ok := c.RefreshBankReadyAt(now, r)
					if !ok {
						t.Fatalf("step %d: REFpb target still open", i)
					}
					at := refreshAt(ready, r)
					if err := c.RefreshBank(at, r); err != nil {
						t.Fatalf("step %d RefreshBank: %v", i, err)
					}
					now = at
					exact[r*c.G.Banks+tb] = make(map[int]int64)
					dirty[r*c.G.Banks+tb] = false
					checkBank(r, tb)
				} else {
					for bb := 0; bb < c.G.Banks; bb++ {
						if open[r*c.G.Banks+bb] {
							closeBank(r, bb)
						}
					}
					ready, ok := c.RefreshReadyAt(now, r)
					if !ok {
						t.Fatalf("step %d: REF with open banks", i)
					}
					at := refreshAt(ready, r)
					if err := c.Refresh(at, r); err != nil {
						t.Fatalf("step %d Refresh: %v", i, err)
					}
					now = at
					for bb := 0; bb < c.G.Banks; bb++ {
						exact[r*c.G.Banks+bb] = make(map[int]int64)
						dirty[r*c.G.Banks+bb] = false
						checkBank(r, bb)
					}
				}
			default: // RFM
				if open[bi] {
					closeBank(r, b)
				}
				at, ok := c.RFMReadyAt(now, r, b)
				if !ok {
					t.Fatalf("step %d: RFM bank still open", i)
				}
				if err := c.RefreshManage(at, r, b); err != nil {
					t.Fatalf("step %d RefreshManage: %v", i, err)
				}
				now = at
				// The RFM rewrites the table (victim cleared, spill maybe
				// zeroed); the shadow restarts and exactness is off until
				// the next refresh of this bank.
				exact[bi] = make(map[int]int64)
				dirty[bi] = true
			}
			c.AdvanceTo(now)
			checkBank(r, b)
		}
		// Final sweep: the undercount invariant must hold everywhere.
		for r := 0; r < c.G.Ranks; r++ {
			for b := 0; b < c.G.Banks; b++ {
				checkBank(r, b)
			}
		}
	})
}
