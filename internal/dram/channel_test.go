package dram

import (
	"math/rand"
	"testing"

	"pradram/internal/core"
	"pradram/internal/power"
)

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func mustActivate(t *testing.T, c *Channel, at int64, r, b, row int, mask core.Mask, half bool) int64 {
	t.Helper()
	ready := c.ActReadyAt(at, r, b, mask, half)
	if err := c.Activate(ready, r, b, row, mask, half); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	return ready
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	bad := DefaultTiming()
	bad.TRC = 5
	if bad.Validate() == nil {
		t.Error("TRC < TRAS+TRP must fail validation")
	}
	bad = DefaultTiming()
	bad.TCKNs = 0
	if bad.Validate() == nil {
		t.Error("zero tCK must fail validation")
	}
	bad = DefaultTiming()
	bad.TFAW = 2
	if bad.Validate() == nil {
		t.Error("TFAW < TRRD must fail validation")
	}
	bad = DefaultTiming()
	bad.TREFI = 10
	if bad.Validate() == nil {
		t.Error("TREFI <= TRFC must fail validation")
	}
	g := DefaultGeometry()
	g.Banks = 0
	if g.Validate() == nil {
		t.Error("zero banks must fail validation")
	}
	if _, err := NewChannel(bad, DefaultGeometry(), nil); err == nil {
		t.Error("NewChannel must propagate validation errors")
	}
}

func TestGeometryCapacity(t *testing.T) {
	t.Parallel()
	g := DefaultGeometry()
	// 2 ranks x 8 banks x 32K rows x 128 lines x 64B = 4GB per channel
	// (2 channels = the paper's 8GB system).
	if got := g.BytesPerChannel(); got != 4<<30 {
		t.Errorf("channel capacity = %d, want 4GiB", got)
	}
}

func TestActivateThenReadTiming(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 42, core.FullMask, false); err != nil {
		t.Fatal(err)
	}
	// A read before tRCD must be rejected.
	if _, err := c.Read(int64(c.T.TRCD)-1, 0, 0, c.T.TBURST, 1, false); err == nil {
		t.Error("read before tRCD must fail")
	}
	done, err := c.Read(int64(c.T.TRCD), 0, 0, c.T.TBURST, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(c.T.TRCD + c.T.TCAS + c.T.TBURST)
	if done != want {
		t.Errorf("read done at %d, want %d", done, want)
	}
	row, mask, open := c.OpenRow(0, 0)
	if !open || row != 42 || !mask.IsFull() {
		t.Errorf("open row state wrong: row=%d mask=%s open=%v", row, mask, open)
	}
}

func TestPartialActivationExtraCycle(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 1, core.Mask(0x01), false); err != nil {
		t.Fatal(err)
	}
	// Column command is delayed by tRCD + 1 (mask transfer cycle).
	if _, err := c.Write(int64(c.T.TRCD), 0, 0, c.T.TBURST, 0.125, false); err == nil {
		t.Error("write at tRCD must fail after partial ACT (needs +1)")
	}
	if _, err := c.Write(int64(c.T.TRCD+1), 0, 0, c.T.TBURST, 0.125, false); err != nil {
		t.Errorf("write at tRCD+1 after partial ACT: %v", err)
	}
	if g := c.Stats.ActsByGranularity[1]; g != 1 {
		t.Errorf("granularity histogram[1] = %d, want 1", g)
	}
}

func TestPartialActOccupiesCmdBusTwoCycles(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 1, core.Mask(0x03), false); err != nil {
		t.Fatal(err)
	}
	// The next command on the channel cannot issue at cycle 1 (mask on the
	// address bus), only at cycle 2.
	if got := c.ActReadyAt(1, 1, 0, core.FullMask, false); got < 2 {
		t.Errorf("next ACT ready at %d, want >= 2 (mask occupies addr bus)", got)
	}
}

func TestPrechargeRules(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Precharge(0, 0, 0); err == nil {
		t.Error("PRE to closed bank must fail")
	}
	if err := c.Activate(0, 0, 0, 7, core.FullMask, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Precharge(int64(c.T.TRAS)-1, 0, 0); err == nil {
		t.Error("PRE before tRAS must fail")
	}
	if err := c.Precharge(int64(c.T.TRAS), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, open := c.OpenRow(0, 0); open {
		t.Error("bank must be closed after precharge")
	}
	// Re-activation honors tRP.
	ready := c.ActReadyAt(int64(c.T.TRAS), 0, 0, core.FullMask, false)
	if want := int64(c.T.TRAS + c.T.TRP); ready < want {
		t.Errorf("re-ACT ready at %d, want >= %d (tRP)", ready, want)
	}
	// Same-bank ACT-to-ACT also honors tRC.
	if ready < int64(c.T.TRC) {
		t.Errorf("re-ACT ready at %d, want >= tRC %d", ready, c.T.TRC)
	}
}

func TestActToOpenBankFails(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 7, core.FullMask, false); err != nil {
		t.Fatal(err)
	}
	at := c.ActReadyAt(100, 0, 0, core.FullMask, false)
	if err := c.Activate(at, 0, 0, 8, core.FullMask, false); err == nil {
		t.Error("ACT to a bank with an open row must fail")
	}
}

func TestActValidation(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 7, 0, false); err == nil {
		t.Error("empty mask must fail")
	}
	if err := c.Activate(0, 0, 0, -1, core.FullMask, false); err == nil {
		t.Error("negative row must fail")
	}
	if err := c.Activate(0, 0, 0, c.G.Rows, core.FullMask, false); err == nil {
		t.Error("row beyond geometry must fail")
	}
}

func TestTRRDBetweenBanks(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 1, core.FullMask, false); err != nil {
		t.Fatal(err)
	}
	ready := c.ActReadyAt(0, 0, 1, core.FullMask, false)
	if ready != int64(c.T.TRRD) {
		t.Errorf("second full ACT ready at %d, want tRRD %d", ready, c.T.TRRD)
	}
}

func TestTRRDRelaxedForPartial(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if err := c.Activate(0, 0, 0, 1, core.Mask(0x01), false); err != nil {
		t.Fatal(err)
	}
	ready := c.ActReadyAt(0, 0, 1, core.Mask(0x01), false)
	// 1/8 activation imposes ceil(5 * 1/8) = 1 cycle of tRRD, but the mask
	// occupies the command bus for 2 cycles, so the next ACT goes at 2.
	if ready != 2 {
		t.Errorf("partial-after-partial ACT ready at %d, want 2", ready)
	}
}

func TestTFAWLimitsFullActivations(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	var at int64
	for b := 0; b < 4; b++ {
		at = mustActivate(t, c, at, 0, b, 1, core.FullMask, false)
	}
	ready := c.ActReadyAt(at, 0, 4, core.FullMask, false)
	if ready < int64(c.T.TFAW) {
		t.Errorf("5th full ACT at %d, want >= tFAW %d", ready, c.T.TFAW)
	}
}

func TestTFAWRelaxedForPartialActivations(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	var at int64
	// Sixteen 1/8 activations weigh 2.0 < 4: never FAW-limited; spacing is
	// only the command-bus (2 cycles each for mask transfer).
	for b := 0; b < 8; b++ {
		at = mustActivate(t, c, at, 0, b, 1, core.Mask(0x01), false)
		if b > 0 && at > int64(b*2) {
			t.Fatalf("partial ACT %d delayed to %d; FAW should not bind", b, at)
		}
		// Close it so we can reuse banks later if needed.
	}
	if got := c.Stats.Activations(); got != 8 {
		t.Errorf("activations = %d, want 8", got)
	}
}

func TestHalfDRAMWeightsHalf(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	var at int64
	// Eight half-weighted full-row ACTs sum to 4.0: all fit one window at
	// tRRD' = ceil(5*0.5) = 3 spacing.
	for b := 0; b < 8; b++ {
		ready := c.ActReadyAt(at, 0, b, core.FullMask, true)
		if b > 0 && ready-at > 3 {
			t.Fatalf("Half-DRAM ACT %d spaced %d, want <= 3", b, ready-at)
		}
		if err := c.Activate(ready, 0, b, 1, core.FullMask, true); err != nil {
			t.Fatal(err)
		}
		at = ready
	}
}

func TestDataBusConflictBetweenReads(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	mustActivate(t, c, 0, 0, 0, 1, core.FullMask, false)
	mustActivate(t, c, 0, 0, 1, 2, core.FullMask, false)
	at := c.ReadReadyAt(20, 0, 0, c.T.TBURST)
	done1, err := c.Read(at, 0, 0, c.T.TBURST, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	at2 := c.ReadReadyAt(at, 0, 1, c.T.TBURST)
	done2, err := c.Read(at2, 0, 1, c.T.TBURST, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if done2-done1 < int64(c.T.TBURST) {
		t.Errorf("second read data overlaps first: %d then %d", done1, done2)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	mustActivate(t, c, 0, 0, 0, 1, core.FullMask, false)
	wrAt := c.WriteReadyAt(20, 0, 0, c.T.TBURST)
	wrDone, err := c.Write(wrAt, 0, 0, c.T.TBURST, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rdAt := c.ReadReadyAt(wrAt, 0, 0, c.T.TBURST)
	if rdAt < wrDone+int64(c.T.TWTR) {
		t.Errorf("read after write at %d, want >= burst end %d + tWTR %d", rdAt, wrDone, c.T.TWTR)
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	mustActivate(t, c, 0, 0, 0, 1, core.FullMask, false)
	wrAt := c.WriteReadyAt(0, 0, 0, c.T.TBURST)
	wrDone, err := c.Write(wrAt, 0, 0, c.T.TBURST, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	preAt := c.PreReadyAt(wrAt, 0, 0)
	if preAt < wrDone+int64(c.T.TWR) {
		t.Errorf("PRE at %d, want >= write end %d + tWR %d", preAt, wrDone, c.T.TWR)
	}
}

func TestAutoPrecharge(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	mustActivate(t, c, 0, 0, 0, 1, core.FullMask, false)
	at := c.ReadReadyAt(0, 0, 0, c.T.TBURST)
	if _, err := c.Read(at, 0, 0, c.T.TBURST, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, _, open := c.OpenRow(0, 0); open {
		t.Error("auto-precharge must close the row")
	}
	if c.Stats.Precharges != 1 {
		t.Errorf("precharges = %d, want 1", c.Stats.Precharges)
	}
}

func TestColumnToClosedBankFails(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	if _, err := c.Read(0, 0, 0, 4, 1, false); err == nil {
		t.Error("read from closed bank must fail")
	}
	if _, err := c.Write(0, 0, 0, 4, 1, false); err == nil {
		t.Error("write to closed bank must fail")
	}
}

func TestRefreshLifecycle(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	r := 0
	if c.RefreshDue(0, r) {
		t.Error("refresh not due at cycle 0")
	}
	due := int64(c.T.TREFI) * int64(r+1) / int64(c.G.Ranks)
	if !c.RefreshDue(due, r) {
		t.Error("refresh due at scheduled point")
	}
	// Refresh with an open bank is refused.
	mustActivate(t, c, 0, r, 0, 1, core.FullMask, false)
	if _, ok := c.RefreshReadyAt(due, r); ok {
		t.Error("refresh must not be ready with open banks")
	}
	if err := c.Refresh(due, r); err == nil {
		t.Error("refresh with open banks must fail")
	}
	pre := c.PreReadyAt(due, r, 0)
	if err := c.Precharge(pre, r, 0); err != nil {
		t.Fatal(err)
	}
	ready, ok := c.RefreshReadyAt(pre, r)
	if !ok {
		t.Fatal("refresh should be ready after precharge")
	}
	if err := c.Refresh(ready, r); err != nil {
		t.Fatal(err)
	}
	if c.RefreshDue(ready, r) {
		t.Error("refresh no longer due after REF")
	}
	// The rank is blocked for tRFC.
	if got := c.ActReadyAt(ready, r, 0, core.FullMask, false); got < ready+int64(c.T.TRFC) {
		t.Errorf("ACT during refresh at %d, want >= %d", got, ready+int64(c.T.TRFC))
	}
	if c.Stats.Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", c.Stats.Refreshes)
	}
}

func TestPowerDownAndWake(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	c.EnterPowerDown(0, 0)
	if !c.PoweredDown(0) {
		t.Error("rank should be powered down")
	}
	// ACT to a powered-down rank is rejected outright.
	if err := c.Activate(200, 0, 0, 1, core.FullMask, false); err == nil {
		t.Error("ACT to powered-down rank must fail")
	}
	// Readiness queries assume a wake at query time: at least tXP away.
	ready := c.ActReadyAt(100, 0, 0, core.FullMask, false)
	if ready < 100+int64(c.T.TXP) {
		t.Errorf("ACT from power-down at %d, want >= %d", ready, 100+int64(c.T.TXP))
	}
	// After an explicit wake, commands wait tXP and then proceed.
	c.Wake(100, 0)
	if c.PoweredDown(0) {
		t.Error("Wake must clear power-down")
	}
	ready = c.ActReadyAt(100, 0, 0, core.FullMask, false)
	if ready != 100+int64(c.T.TXP) {
		t.Errorf("post-wake ACT ready at %d, want %d", ready, 100+int64(c.T.TXP))
	}
	if err := c.Activate(ready, 0, 0, 1, core.FullMask, false); err != nil {
		t.Fatal(err)
	}
	// Waking an awake rank is a no-op.
	c.Wake(ready, 0)
	// Power-down with an open bank is refused.
	c.EnterPowerDown(ready, 0)
	if c.PoweredDown(0) {
		t.Error("power-down with open bank must be refused")
	}
	// Refresh to a powered-down rank is rejected too.
	c2 := newTestChannel(t)
	c2.EnterPowerDown(0, 0)
	if err := c2.Refresh(int64(c2.T.TREFI), 0); err == nil {
		t.Error("REF to powered-down rank must fail")
	}
}

func TestBackgroundAccountingStates(t *testing.T) {
	t.Parallel()
	acc := power.NewAccumulator()
	c, err := NewChannel(DefaultTiming(), DefaultGeometry(), acc)
	if err != nil {
		t.Fatal(err)
	}
	// 10 cycles precharged-standby on both ranks.
	c.AdvanceTo(10)
	preE := acc.TotalEnergy()
	if preE <= 0 {
		t.Fatal("background energy must accrue")
	}
	// Open a bank: active standby is costlier.
	mustActivate(t, c, 10, 0, 0, 1, core.FullMask, false)
	acc.Reset()
	c.AdvanceTo(20)
	actE := acc.TotalEnergy()
	if actE <= preE {
		t.Errorf("active standby (%v) must exceed precharged standby (%v)", actE, preE)
	}
	// Powered down is cheapest.
	pre := c.PreReadyAt(20, 0, 0)
	if err := c.Precharge(pre, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(pre)
	c.EnterPowerDown(pre, 0)
	c.EnterPowerDown(pre, 1)
	acc.Reset()
	c.AdvanceTo(pre + 10)
	pdnE := acc.TotalEnergy()
	if pdnE >= preE {
		t.Errorf("power-down energy (%v) must be below precharged standby (%v)", pdnE, preE)
	}
	if c.Stats.PowerDownCycles == 0 {
		t.Error("power-down cycles must be counted")
	}
}

func TestStatsWordAccounting(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	mustActivate(t, c, 0, 0, 0, 1, core.FullMask, false)
	at := c.WriteReadyAt(0, 0, 0, c.T.TBURST)
	if _, err := c.Write(at, 0, 0, c.T.TBURST, 0.25, false); err != nil {
		t.Fatal(err)
	}
	if c.Stats.WordsWritten != 2 || c.Stats.WordBudget != 8 {
		t.Errorf("word accounting = %d/%d, want 2/8", c.Stats.WordsWritten, c.Stats.WordBudget)
	}
}

func TestAvgGranularity(t *testing.T) {
	t.Parallel()
	var s Stats
	if s.AvgGranularity() != 0 {
		t.Error("empty stats average 0")
	}
	s.ActsByGranularity[8] = 1
	s.ActsByGranularity[1] = 1
	if got := s.AvgGranularity(); got != 4.5 {
		t.Errorf("avg granularity = %v, want 4.5", got)
	}
}

// Property-style fuzz: a driver that always asks ReadyAt before issuing must
// never see an error, and device invariants hold throughout.
func TestRandomLegalCommandStream(t *testing.T) {
	t.Parallel()
	c := newTestChannel(t)
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	type key struct{ r, b int }
	open := map[key]bool{}
	for i := 0; i < 3000; i++ {
		r := rng.Intn(c.G.Ranks)
		b := rng.Intn(c.G.Banks)
		k := key{r, b}
		if open[k] {
			switch rng.Intn(4) {
			case 0:
				at := c.ReadReadyAt(now, r, b, c.T.TBURST)
				if _, err := c.Read(at, r, b, c.T.TBURST, 1, false); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				now = at
			case 1:
				at := c.WriteReadyAt(now, r, b, c.T.TBURST)
				if _, err := c.Write(at, r, b, c.T.TBURST, rng.Float64(), false); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				now = at
			default:
				at := c.PreReadyAt(now, r, b)
				if err := c.Precharge(at, r, b); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				open[k] = false
				now = at
			}
		} else {
			mask := core.Mask(rng.Intn(255) + 1)
			half := rng.Intn(2) == 0
			at := c.ActReadyAt(now, r, b, mask, half)
			if err := c.Activate(at, r, b, rng.Intn(c.G.Rows), mask, half); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			open[k] = true
			now = at
		}
		c.AdvanceTo(now)
	}
	if c.Stats.Activations() == 0 || c.Stats.Reads == 0 || c.Stats.Writes == 0 {
		t.Error("random stream should exercise all command types")
	}
	if c.Acc.TotalEnergy() <= 0 {
		t.Error("energy must accrue")
	}
}
