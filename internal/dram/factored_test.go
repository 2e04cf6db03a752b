package dram

import (
	"math/rand"
	"testing"

	"pradram/internal/core"
	"pradram/internal/power"
)

// checkFactored compares, for every bank and a handful of PRA masks, the
// factored ready cycle max(now, bank term, rank term[, tFAW term]) with the
// *LatTerms / PreReadyAt result it must equal.
func checkFactored(t *testing.T, ch *Channel, now int64, half bool, rng *rand.Rand) {
	t.Helper()
	var lt LatTerms
	for r := 0; r < ch.G.Ranks; r++ {
		rank := ch.RankTerms(now, r)
		for b := 0; b < ch.G.Banks; b++ {
			bank := ch.BankTerms(r, b)
			for _, mask := range []core.Mask{core.FullMask, 0x01, core.Mask(rng.Intn(255) + 1)} {
				got := max(now, bank.Act, rank.Act, ch.FAWReadyAt(r, mask, half))
				if want := ch.ActLatTerms(now, r, b, mask, half, &lt); got != want {
					t.Fatalf("cycle %d rank %d bank %d ACT %v: factored %d, ActLatTerms %d (%v)", now, r, b, mask, got, want, lt)
				}
			}
			burst := ch.T.TBURST * (1 + rng.Intn(2))
			if got, want := max(now, bank.Read, rank.Read), ch.ReadLatTerms(now, r, b, burst, &lt); got != want {
				t.Fatalf("cycle %d rank %d bank %d RD: factored %d, ReadLatTerms %d (%v)", now, r, b, got, want, lt)
			}
			if got, want := max(now, bank.Write, rank.Write), ch.WriteLatTerms(now, r, b, burst, &lt); got != want {
				t.Fatalf("cycle %d rank %d bank %d WR: factored %d, WriteLatTerms %d (%v)", now, r, b, got, want, lt)
			}
			if got, want := max(now, bank.Pre, rank.Pre), ch.PreReadyAt(now, r, b); got != want {
				t.Fatalf("cycle %d rank %d bank %d PRE: factored %d, PreReadyAt %d", now, r, b, got, want)
			}
		}
	}
}

// FuzzFactoredReadiness drives a channel through a random legal command
// stream — partial and full ACTs, reads and writes with and without
// auto-precharge, precharges, all-bank or per-bank refresh, RFM, every
// power-down state and its wake, on both ranks — and after every command,
// and at idle cycles in between, holds the factored readiness terms to the
// *LatTerms rules. The scheduler ranks candidates by the factored form and
// issues by the other; they may never drift apart.
func FuzzFactoredReadiness(f *testing.F) {
	f.Add(int64(1), false, false, false)
	f.Add(int64(2), true, false, true)  // per-bank refresh, Half-DRAM weights
	f.Add(int64(3), false, true, false) // unweighted tFAW (the ablation, SDS)
	f.Add(int64(4), true, true, true)
	f.Fuzz(func(t *testing.T, seed int64, perBank, unweighted, half bool) {
		ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
		if err != nil {
			t.Fatal(err)
		}
		ch.NoWeightedFAW = unweighted
		ch.TrackRows(16)
		ch.MaxPostpone = 8
		if perBank {
			ch.RefMode = RefPerBank
		}
		rng := rand.New(rand.NewSource(seed))
		ch.SlowExitPD = rng.Intn(2) == 0
		issued := 0
		ch.Trace = func(CmdEvent) { issued++ }
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		now := int64(0)
		for i := 0; i < 3000; i++ {
			if rng.Intn(4) == 0 {
				now += int64(rng.Intn(40)) // idle gap: terms expire at different cycles
				ch.Clock(now)
				checkFactored(t, ch, now, half, rng)
			}
			r, b := rng.Intn(ch.G.Ranks), rng.Intn(ch.G.Banks)
			if ch.PoweredDown(r) {
				if rng.Intn(3) > 0 {
					continue // stay down: readiness then assumes a wake at the query
				}
				ch.Wake(now, r)
			}
			burst := ch.T.TBURST * (1 + rng.Intn(2))
			_, _, open := ch.OpenRow(r, b)
			switch op := rng.Intn(20); {
			case op < 4 && ch.RefreshDue(now, r) || op == 0 && ch.CanPullIn(now, r): // refresh: late, on time or pulled in
				for bb := 0; bb < ch.G.Banks; bb++ {
					if _, _, o := ch.OpenRow(r, bb); o && (!perBank || bb == ch.NextRefreshBank(r)) {
						now = ch.PreReadyAt(now, r, bb)
						ch.Clock(now)
						must(ch.Precharge(now, r, bb))
					}
				}
				if perBank {
					now, _ = ch.RefreshBankReadyAt(now, r)
					ch.Clock(now)
					must(ch.RefreshBank(now, r))
				} else {
					now, _ = ch.RefreshReadyAt(now, r)
					ch.Clock(now)
					must(ch.Refresh(now, r))
				}
			case op == 1: // power down, or self-refresh, when the rank allows it
				at := max(now, ch.PDEntryReadyAt(r))
				ch.Clock(at)
				switch {
				case ch.AnyBankOpen(r):
					ch.EnterActivePowerDown(at, r)
				case rng.Intn(3) == 0:
					ch.EnterSelfRefresh(at, r)
				default:
					ch.EnterPowerDown(at, r)
				}
				now = at
			case op == 2 && !open:
				now, _ = ch.RFMReadyAt(now, r, b)
				ch.Clock(now)
				must(ch.RefreshManage(now, r, b))
			case !open:
				mask := core.FullMask
				if rng.Intn(3) > 0 {
					mask = core.Mask(rng.Intn(255) + 1)
				}
				now = ch.ActReadyAt(now, r, b, mask, half)
				ch.Clock(now)
				must(ch.Activate(now, r, b, rng.Intn(ch.G.Rows), mask, half))
			case op < 8:
				now = ch.PreReadyAt(now, r, b)
				ch.Clock(now)
				must(ch.Precharge(now, r, b))
			case op < 14:
				now = ch.ReadReadyAt(now, r, b, burst)
				ch.Clock(now)
				_, err := ch.Read(now, r, b, burst, 1, rng.Intn(4) == 0)
				must(err)
			default:
				now = ch.WriteReadyAt(now, r, b, burst)
				ch.Clock(now)
				_, err := ch.Write(now, r, b, burst, rng.Float64(), rng.Intn(4) == 0)
				must(err)
			}
			checkFactored(t, ch, now, half, rng)
		}
		if issued < 1500 {
			t.Fatalf("stream issued only %d commands", issued)
		}
	})
}
