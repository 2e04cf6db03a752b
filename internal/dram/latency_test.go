package dram

import (
	"testing"

	"pradram/internal/core"
)

// actTerms, readTerms and writeTerms explain an ACT (full row), a column
// read and a column write on bank (r,b) from the channel's parts, the way
// the scheduler does.
func actTerms(ch *Channel, now int64, r, b int, t *LatTerms) int64 {
	var rt RankTerms
	ch.RankTerms(now, r, &rt)
	return rt.ActLatTerms(now, ch.BankTerms(r, b), ch.FAWReadyAt(r, core.FullMask, false), t)
}

func readTerms(ch *Channel, now int64, r, b int, t *LatTerms) int64 {
	var rt RankTerms
	ch.RankTerms(now, r, &rt)
	return rt.ReadLatTerms(now, ch.BankTerms(r, b), t)
}

func writeTerms(ch *Channel, now int64, r, b int, t *LatTerms) int64 {
	var rt RankTerms
	ch.RankTerms(now, r, &rt)
	return rt.WriteLatTerms(now, ch.BankTerms(r, b), t)
}

// TestLatTermsMatchReadyAt holds the two uses of the readiness parts to each
// other: the ready cycle each *ReadyAt folds must equal the one its
// RankTerms.*LatTerms twin explains, and that must be the max over the
// deadlines it fills (no term past the ready cycle). The queries follow a
// read burst on rank 0 through the cycles where the data bus binds, for
// both ranks.
func TestLatTermsMatchReadyAt(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	mustActivate(t, ch, 0, 0, 0, 7, core.FullMask, false)
	mustActivate(t, ch, 0, 1, 0, 7, core.FullMask, false)
	rd := ch.ReadReadyAt(0, 0, 0, ch.T.TBURST)
	if _, err := ch.Read(rd, 0, 0, ch.T.TBURST, 1, false); err != nil {
		t.Fatal(err)
	}
	for now := rd; now < rd+32; now++ {
		for r := 0; r < ch.G.Ranks; r++ {
			for _, c := range []struct {
				cmd     string
				b       int
				explain func(*Channel, int64, int, int, *LatTerms) int64
				ready   int64
			}{
				{"ACT", 1, actTerms, ch.ActReadyAt(now, r, 1, core.FullMask, false)},
				{"RD", 0, readTerms, ch.ReadReadyAt(now, r, 0, ch.T.TBURST)},
				{"WR", 0, writeTerms, ch.WriteReadyAt(now, r, 0, ch.T.TBURST)},
			} {
				var lt LatTerms
				got, top := c.explain(ch, now, r, c.b, &lt), now
				for _, d := range lt {
					top = max(top, d)
				}
				if got != c.ready || top != c.ready {
					t.Fatalf("%s rank %d at %d: ready %d, terms %v explain %d (max %d)", c.cmd, r, now, c.ready, lt, got, top)
				}
			}
		}
	}
}

// TestLatTermsBlameTheBindingConstraint drives one constraint family at a
// time and asserts the decomposition points at it.
func TestLatTermsBlameTheBindingConstraint(t *testing.T) {
	t.Parallel()

	t.Run("bank-tRC", func(t *testing.T) {
		ch := newTestChannel(t)
		at := mustActivate(t, ch, 0, 0, 0, 1, core.FullMask, false)
		pre := ch.PreReadyAt(at, 0, 0)
		if err := ch.Precharge(pre, 0, 0); err != nil {
			t.Fatal(err)
		}
		var terms LatTerms
		ready := actTerms(ch, pre+1, 0, 0, &terms)
		if terms[TermBank] != ready || ready <= pre+1 {
			t.Fatalf("PRE->ACT wait not blamed on the bank term: ready %d terms %v", ready, terms)
		}
	})

	t.Run("refresh", func(t *testing.T) {
		ch := newTestChannel(t)
		due := ch.ranks[0].nextRefresh
		if err := ch.Refresh(due, 0); err != nil {
			t.Fatal(err)
		}
		var terms LatTerms
		ready := actTerms(ch, due+1, 0, 0, &terms)
		if terms[TermRefresh] != ready || ready != ch.ranks[0].refUntil {
			t.Fatalf("refresh-blocked ACT not blamed on the refresh term: ready %d terms %v", ready, terms)
		}
	})

	t.Run("power-down-exit", func(t *testing.T) {
		ch := newTestChannel(t)
		if !ch.EnterPowerDown(int64(ch.T.TCKE), 0) {
			t.Fatal("power-down entry refused")
		}
		now := int64(ch.T.TCKE) * 3
		var terms LatTerms
		ready := actTerms(ch, now, 0, 0, &terms)
		if terms[TermPD] != ready || ready < now+int64(ch.T.TXP) {
			t.Fatalf("power-down exit not blamed on the PD term: ready %d terms %v", ready, terms)
		}
	})

	t.Run("timing-tRRD", func(t *testing.T) {
		ch := newTestChannel(t)
		at := mustActivate(t, ch, 0, 0, 0, 1, core.FullMask, false)
		var terms LatTerms
		ready := actTerms(ch, at+1, 0, 1, &terms)
		if terms[TermTiming] != ready || ready != at+int64(ch.T.TRRD) {
			t.Fatalf("tRRD wait not blamed on the timing term: ready %d terms %v", ready, terms)
		}
	})

	t.Run("timing-data-bus", func(t *testing.T) {
		ch := newTestChannel(t)
		mustActivate(t, ch, 0, 0, 0, 1, core.FullMask, false)
		mustActivate(t, ch, 0, 1, 0, 1, core.FullMask, false)
		rd := ch.ReadReadyAt(0, 0, 0, ch.T.TBURST)
		if _, err := ch.Read(rd, 0, 0, ch.T.TBURST, 1, false); err != nil {
			t.Fatal(err)
		}
		// A write from another rank must wait out the read burst + tRTRS on
		// the shared data bus; that wait belongs to the timing term.
		var terms LatTerms
		now := rd + int64(ch.T.TCCD)
		ready := writeTerms(ch, now, 1, 0, &terms)
		if ready <= now {
			t.Skip("bus not contended at this geometry/timing")
		}
		if terms[TermTiming] != ready {
			t.Fatalf("bus contention not blamed on the timing term: now %d ready %d terms %v", now, ready, terms)
		}
	})
}
