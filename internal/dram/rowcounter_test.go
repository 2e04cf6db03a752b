package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"pradram/internal/core"
)

// Tests for the per-row activation counters and the RFM command
// (rowcounter.go, DESIGN.md §4g).

func trackedChannel(t *testing.T) *Channel {
	t.Helper()
	c := newTestChannel(t)
	c.TrackRows()
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
	if c.rowCtr != nil {
		t.Error("tracking must be off by default")
	}
	actRow(t, c, 0, 0, 0, 42)
	if got := c.RowActCount(0, 0, 42); got != 0 {
		t.Errorf("disabled tracking reports count %d, want 0", got)
	}
	if c.RowCounts(0, 0) != nil {
		t.Error("disabled tracking must report a nil table")
	}
}

func TestRowCounterCountsPerRowPerBank(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t)
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
		{0, 0, 300, 0}, // never activated
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

func TestRowCounterVictimTieBreak(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t)
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

func TestRFMBlocksOnlyTargetBank(t *testing.T) {
	t.Parallel()
	c := trackedChannel(t)
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
	c.TrackRows()
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
		c := trackedChannel(t)
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
		c := trackedChannel(t)
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
		c := trackedChannel(t)
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
// precharges, refreshes (under each refresh mode: all-bank, per-bank, or
// all-bank with elastic postpone and pull-in credit), and RFMs — against a shadow model that counts every
// activation exactly, and requires the counters to equal it at every step:
// a refresh clears its banks and nothing else, and an RFM clears exactly
// the bank's highest-count row (the lowest row on ties). The row set is
// small so that rows collide and RFM ties are common.
func FuzzRowCounterWindow(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(RefAllBank))
	f.Add(uint64(7), uint8(1), uint8(RefPerBank))
	f.Add(uint64(42), uint8(15), uint8(RefElastic))
	f.Add(uint64(9), uint8(2), uint8(RefPerBank))
	f.Fuzz(func(t *testing.T, seed uint64, rows8 uint8, mode uint8) {
		rowSet := 3 * (int(rows8%16) + 1)
		c := newTestChannel(t)
		c.RefMode = RefreshMode(mode % 3)
		perBank := c.RefMode == RefPerBank
		c.TrackRows()
		rng := rand.New(rand.NewSource(int64(seed)))

		nBanks := c.G.Ranks * c.G.Banks
		exact := make([]map[int]int64, nBanks) // shadow: true counts since last reset
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
		// (JEDEC's eight tREFI under elastic refresh, none otherwise).
		refreshAt := func(ready int64, r int) int64 {
			if c.RefMode == RefElastic {
				return max(ready, c.NextRefreshAt(r)-rng.Int63n(8*int64(c.T.TREFI)))
			}
			return max(ready, c.NextRefreshAt(r))
		}
		checkBank := func(r, b int) {
			i := r*c.G.Banks + b
			if got := c.RowCounts(r, b); !reflect.DeepEqual(got, exact[i]) {
				t.Fatalf("rank %d bank %d diverged: table %v, exact %v", r, b, got, exact[i])
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
				row := rng.Intn(rowSet)
				at := c.ActReadyAt(now, r, b, core.FullMask, false)
				if err := c.Activate(at, r, b, row, core.FullMask, false); err != nil {
					t.Fatalf("step %d Activate: %v", i, err)
				}
				open[bi] = true
				now = at
				exact[bi][row]++
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
				// The lowest of the hottest rows: scan upward, keep strict maxima.
				victim, hot := -1, int64(0)
				for row := 0; row < rowSet; row++ {
					if n := exact[bi][row]; n > hot {
						victim, hot = row, n
					}
				}
				delete(exact[bi], victim)
			}
			c.AdvanceTo(now)
			checkBank(r, b)
		}
		// Final sweep: every bank, touched last or not, still matches.
		for r := 0; r < c.G.Ranks; r++ {
			for b := 0; b < c.G.Banks; b++ {
				checkBank(r, b)
			}
		}
	})
}
