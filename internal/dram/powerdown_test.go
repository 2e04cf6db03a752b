package dram

import (
	"testing"

	"pradram/internal/core"
	"pradram/internal/power"
)

// drain advances rank r of ch past any refresh obligation at cycle now by
// issuing due refreshes, returning the first cycle with no refresh due.
func drainRefresh(t *testing.T, c *Channel, now int64, r int) int64 {
	t.Helper()
	for c.RefreshDue(now, r) {
		at, ok := c.RefreshReadyAt(now, r)
		if !ok {
			t.Fatal("refresh blocked by open banks")
		}
		if err := c.Refresh(at, r); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		now = at + int64(c.T.TRFC)
	}
	return now
}

func TestSlowExitPowerDownUsesTXPDLL(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	ch.SlowExitPD = true
	if !ch.EnterPowerDown(10, 0) {
		t.Fatal("slow power-down entry refused")
	}
	if got := ch.PDStateOf(0); got != PDPrechargeSlow {
		t.Fatalf("state = %v, want pre-pd-slow", got)
	}
	ch.Wake(100, 0)
	ready := ch.ActReadyAt(100, 0, 0, core.FullMask, false)
	if want := int64(100 + ch.T.TXPDLL); ready != want {
		t.Fatalf("post-slow-wake ACT ready at %d, want %d (tXPDLL)", ready, want)
	}
}

func TestActivePowerDownLifecycle(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	// APD entry requires an open bank.
	if ch.EnterActivePowerDown(5, 0) {
		t.Fatal("APD entered with all banks closed")
	}
	at := mustActivate(t, ch, 0, 0, 0, 7, core.FullMask, false)
	entry := at + int64(ch.T.TRAS)
	if !ch.EnterActivePowerDown(entry, 0) {
		t.Fatal("APD entry refused with an open bank")
	}
	if got := ch.PDStateOf(0); got != PDActive {
		t.Fatalf("state = %v, want active-pd", got)
	}
	// Columns and precharges are rejected while CKE is low.
	if _, err := ch.Read(entry+1, 0, 0, ch.T.TBURST, 1, false); err == nil {
		t.Fatal("RD accepted in active power-down")
	}
	if _, err := ch.Write(entry+1, 0, 0, ch.T.TBURST, 1, false); err == nil {
		t.Fatal("WR accepted in active power-down")
	}
	if err := ch.Precharge(entry+1, 0, 0); err == nil {
		t.Fatal("PRE accepted in active power-down")
	}
	// The open row must survive wake, and the first column waits tXP.
	wake := entry + 50
	ch.Wake(wake, 0)
	if _, _, open := ch.OpenRow(0, 0); !open {
		t.Fatal("row lost across active power-down")
	}
	ready := ch.ReadReadyAt(wake, 0, 0, ch.T.TBURST)
	if want := wake + int64(ch.T.TXP); ready != want {
		t.Fatalf("post-APD-wake RD ready at %d, want %d (tXP)", ready, want)
	}
	if _, err := ch.Read(ready, 0, 0, ch.T.TBURST, 1, false); err != nil {
		t.Fatalf("RD after APD wake: %v", err)
	}
}

func TestSelfRefreshLifecycle(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	// Entry is refused while a refresh is due.
	due := ch.NextRefreshAt(0)
	if ch.EnterSelfRefresh(due, 0) {
		t.Fatal("self-refresh entered with a refresh due")
	}
	now := drainRefresh(t, ch, due, 0)
	if !ch.EnterSelfRefresh(now, 0) {
		t.Fatal("self-refresh entry refused on a refresh-current rank")
	}
	if got := ch.PDStateOf(0); got != PDSelfRefresh {
		t.Fatalf("state = %v, want self-refresh", got)
	}
	// No external refresh falls due while self-refreshing, and the rank's
	// deadline drops out of the channel horizon.
	far := now + 100*int64(ch.T.TREFI)
	if ch.RefreshDue(far, 0) {
		t.Fatal("external refresh due during self-refresh")
	}
	if ch.NextRefreshAt(0) != neverRefresh {
		t.Fatal("self-refreshing rank still advertises a refresh deadline")
	}
	if err := ch.Refresh(far, 0); err == nil {
		t.Fatal("external REF accepted during self-refresh")
	}
	// Exit costs tXS, and the refresh timer re-arms after the exit.
	ch.Wake(far, 0)
	ready := ch.ActReadyAt(far, 0, 0, core.FullMask, false)
	if want := far + int64(ch.T.TXS); ready != want {
		t.Fatalf("post-SR-wake ACT ready at %d, want %d (tXS)", ready, want)
	}
	if next := ch.NextRefreshAt(0); next != ready+int64(ch.T.TREFI) {
		t.Fatalf("post-SR refresh deadline %d, want %d", next, ready+int64(ch.T.TREFI))
	}
	if ch.Stats.SelfRefEntries != 1 {
		t.Fatalf("SelfRefEntries = %d, want 1", ch.Stats.SelfRefEntries)
	}
}

func TestTCKEMinimumResidency(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	// A wake within tCKE of entry is clamped: CKE cannot rise before
	// entry + tCKE, so the exit window lands at entry + tCKE + tXP.
	if !ch.EnterPowerDown(100, 0) {
		t.Fatal("power-down entry refused")
	}
	ch.Wake(101, 0)
	ready := ch.ActReadyAt(101, 0, 0, core.FullMask, false)
	if want := int64(100 + ch.T.TCKE + ch.T.TXP); ready != want {
		t.Fatalf("early-wake ACT ready at %d, want %d (tCKE clamp + tXP)", ready, want)
	}
	// Re-entry within tCKE of the wake is refused (CKE high pulse width),
	// then allowed once the window passes.
	wakeEff := int64(100 + ch.T.TCKE)
	if ch.EnterPowerDown(wakeEff+1, 0) {
		t.Fatal("re-entered power-down inside the tCKE window")
	}
	okAt := wakeEff + int64(ch.T.TCKE) + int64(ch.T.TXP)
	if !ch.EnterPowerDown(okAt, 0) {
		t.Fatal("power-down re-entry refused after tCKE + tXP")
	}
}

func TestPerBankRefreshBlocksOnlyTargetBank(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	ch.RefMode = RefPerBank
	iv := int64(ch.T.TREFI) / int64(ch.G.Banks)
	if got := ch.refInterval(); got != iv {
		t.Fatalf("refInterval = %d, want %d", got, iv)
	}
	// All-bank REF is rejected in per-bank mode.
	if err := ch.Refresh(ch.NextRefreshAt(0), 0); err == nil {
		t.Fatal("all-bank REF accepted on a per-bank channel")
	}
	// Open a row in a non-target bank; REFpb must still issue.
	target := ch.NextRefreshBank(0)
	other := (target + 1) % ch.G.Banks
	mustActivate(t, ch, 0, 0, other, 3, core.FullMask, false)
	now := ch.NextRefreshAt(0)
	at, ok := ch.RefreshBankReadyAt(now, 0)
	if !ok {
		t.Fatal("REFpb blocked by an open row in a different bank")
	}
	if err := ch.RefreshBank(at, 0); err != nil {
		t.Fatalf("RefreshBank: %v", err)
	}
	// The target bank is blocked for tRFCpb; the open bank keeps serving.
	if ready := ch.ActReadyAt(at+1, 0, target, core.FullMask, false); ready < at+int64(ch.T.TRFCPB) {
		t.Fatalf("refreshed bank ACT-ready at %d, want >= %d (tRFCpb)", ready, at+int64(ch.T.TRFCPB))
	}
	if ready := ch.ReadReadyAt(at+1, 0, other, ch.T.TBURST); ready >= at+int64(ch.T.TRFCPB) {
		t.Fatalf("other bank blocked until %d by a per-bank refresh", ready)
	}
	// The cursor advanced and the deadline moved one per-bank interval.
	if got := ch.NextRefreshBank(0); got != other {
		t.Fatalf("refresh cursor = %d, want %d", got, other)
	}
	if got := ch.NextRefreshAt(0); got != now+iv {
		t.Fatalf("next deadline = %d, want %d", got, now+iv)
	}
	// A REFpb aimed at an open bank reports not-ready.
	mustActivate(t, ch, at+int64(ch.T.TRFCPB), 0, target, 5, core.FullMask, false) // reopen some bank
	for ch.NextRefreshBank(0) != other {
		at2, ok := ch.RefreshBankReadyAt(ch.NextRefreshAt(0), 0)
		if !ok {
			t.Fatal("REFpb unexpectedly blocked")
		}
		if err := ch.RefreshBank(at2, 0); err != nil {
			t.Fatalf("RefreshBank: %v", err)
		}
	}
	if _, ok := ch.RefreshBankReadyAt(ch.NextRefreshAt(0), 0); ok {
		t.Fatal("REFpb ready with an open row in the target bank")
	}
}

func TestRefreshPostponeWindowBounds(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	ch.RefMode = RefElastic
	iv := int64(ch.T.TREFI)
	due := ch.NextRefreshAt(0)
	if ch.RefreshMust(due, 0) {
		t.Fatal("refresh already mandatory at its nominal deadline")
	}
	if !ch.RefreshMust(due+8*iv, 0) {
		t.Fatal("refresh still postponable past 8x tREFI")
	}
	if got := ch.MustRefreshAt(0); got != due+8*iv {
		t.Fatalf("MustRefreshAt = %d, want %d", got, due+8*iv)
	}
	// Postponing past one interval counts as a postponed refresh.
	late := due + iv
	if err := ch.Refresh(late, 0); err != nil {
		t.Fatalf("postponed Refresh: %v", err)
	}
	if ch.Stats.PostponedRefreshes != 1 {
		t.Fatalf("PostponedRefreshes = %d, want 1", ch.Stats.PostponedRefreshes)
	}
	// Pull in up to the credit; the 8th consecutive early refresh that
	// would exceed the window is rejected.
	now := late + int64(ch.T.TRFC)
	pulled := 0
	for ch.CanPullIn(now, 0) {
		at, ok := ch.RefreshReadyAt(now, 0)
		if !ok {
			t.Fatal("refresh blocked by open banks")
		}
		if err := ch.Refresh(at, 0); err != nil {
			t.Fatalf("pull-in Refresh #%d: %v", pulled+1, err)
		}
		now = at + int64(ch.T.TRFC)
		pulled++
		if pulled > 16 {
			t.Fatal("pull-in never exhausted its credit")
		}
	}
	if ch.Stats.PulledInRefreshes == 0 {
		t.Fatal("no pulled-in refreshes counted")
	}
	// Beyond the credit the channel rejects the early refresh outright.
	at, _ := ch.RefreshReadyAt(now, 0)
	if err := ch.Refresh(at, 0); err == nil {
		t.Fatal("refresh pull-in beyond the 8x window accepted")
	}
}

func TestPostponeZeroKeepsSeedDiscipline(t *testing.T) {
	t.Parallel()
	ch := newTestChannel(t)
	if ch.CanPullIn(0, 0) {
		t.Fatal("pull-in allowed under all-bank refresh")
	}
	due := ch.NextRefreshAt(0)
	if !ch.RefreshMust(due, 0) {
		t.Fatal("under all-bank refresh, due must imply mandatory")
	}
	if err := ch.Refresh(due-1, 0); err == nil {
		t.Fatal("early refresh accepted with no pull-in credit")
	}
}

func TestBackgroundAccountingDeepStates(t *testing.T) {
	t.Parallel()
	ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0: slow power-down. Rank 1 would interleave refreshes; keep the
	// span short of any deadline.
	ch.SlowExitPD = true
	if !ch.EnterPowerDown(0, 0) {
		t.Fatal("entry refused")
	}
	ch.AdvanceTo(1000)
	if ch.Stats.SlowPDCycles != 1000 {
		t.Fatalf("SlowPDCycles = %d, want 1000", ch.Stats.SlowPDCycles)
	}
	ch.Wake(1000, 0)
	// Self-refresh accrues SelfRefCycles.
	now := drainRefresh(t, ch, ch.NextRefreshAt(0), 0)
	if !ch.EnterSelfRefresh(now, 0) {
		t.Fatal("self-refresh refused")
	}
	ch.AdvanceTo(now + 500)
	if ch.Stats.SelfRefCycles != 500 {
		t.Fatalf("SelfRefCycles = %d, want 500", ch.Stats.SelfRefCycles)
	}
	if got := ch.Stats.LowPowerCycles(); got != 1500 {
		t.Fatalf("LowPowerCycles = %d, want 1500", got)
	}
	if ch.Stats.TotalRankCycles() == 0 {
		t.Fatal("TotalRankCycles must include awake rank 1")
	}
}
