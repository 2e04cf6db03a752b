package memctrl

import (
	"math/rand"
	"strings"
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/power"
)

func newCtl(t *testing.T, mod func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runUntil ticks the controller until cond returns true or the budget runs
// out; it returns the CPU cycle reached.
func runUntil(t *testing.T, c *Controller, start, budget int64, cond func() bool) int64 {
	t.Helper()
	for cpu := start; cpu < start+budget; cpu++ {
		c.Tick(cpu)
		if cond() {
			return cpu
		}
	}
	t.Fatalf("condition not reached within %d cycles", budget)
	return 0
}

func addrAt(c *Controller, l Loc) uint64 { return compose(c.am, l) }

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Channels = 3
	if bad.Validate() == nil {
		t.Error("3 channels must fail")
	}
	bad = good
	bad.HighWM, bad.LowWM = 10, 20
	if bad.Validate() == nil {
		t.Error("inverted watermarks must fail")
	}
	bad = good
	for _, r := range []dram.Rate{{Num: 6401, Den: 1}, {Num: 1600_001, Den: 1001}} {
		bad.Timing.Rate = r
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Timing.Rate") {
			t.Errorf("rate %v (faster than the cores, or finer than 1/1000 MT/s) must fail naming Timing.Rate, got %v", r, err)
		}
	}
	bad = good
	bad.MaxRowHits = 0
	if bad.Validate() == nil {
		t.Error("zero row-hit cap must fail")
	}
	if _, err := New(bad); err == nil {
		t.Error("New must propagate validation")
	}
}

func TestSingleReadLatency(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	var doneAt int64 = -1
	if !c.Read(0x1000, core.Untagged(func(at int64) { doneAt = at })) {
		t.Fatal("read rejected")
	}
	runUntil(t, c, 0, 10000, func() bool { return doneAt >= 0 })
	// Idle-start read: power-down exit + ACT + tRCD + CL + burst, in CPU
	// cycles (x4). Roughly (11+11+4)*4 = 104 plus scheduling slack.
	if doneAt < 26*4 || doneAt > 60*4 {
		t.Errorf("read latency %d CPU cycles, want ~104-240", doneAt)
	}
	s := c.Stats()
	if s.ReadsServed != 1 || s.RowHitRead != 0 {
		t.Errorf("stats %+v, want 1 read, 0 hits", s)
	}
}

func TestRowHitsAndCap(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	done := 0
	for col := 0; col < 8; col++ {
		addr := addrAt(c, Loc{Row: 5, Col: col})
		if !c.Read(addr, core.Untagged(func(int64) { done++ })) {
			t.Fatal("read rejected")
		}
	}
	runUntil(t, c, 0, 100000, func() bool { return done == 8 })
	s := c.Stats()
	// 8 same-row reads under a 4-access cap: ACT, 3 hits, re-ACT, 3 hits.
	if s.RowHitRead != 6 {
		t.Errorf("row hits = %d, want 6 (4-access cap)", s.RowHitRead)
	}
	if got := c.DeviceStats().Activations(); got != 2 {
		t.Errorf("activations = %d, want 2", got)
	}
}

func TestPRAPartialWriteActivation(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	addr := addrAt(c, Loc{Row: 9})
	if !c.Write(addr, core.StoreBytes(0, 8)) { // word 0 dirty
		t.Fatal("write rejected")
	}
	runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
	d := c.DeviceStats()
	if d.ActsByGranularity[1] != 1 {
		t.Errorf("granularity histogram = %v, want one 1/8 activation", d.ActsByGranularity)
	}
	if d.WordsWritten != 1 || d.WordBudget != 8 {
		t.Errorf("words written = %d/%d, want 1/8", d.WordsWritten, d.WordBudget)
	}
}

func TestBaselineWriteIsFullRow(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	addr := addrAt(c, Loc{Row: 9})
	c.Write(addr, core.StoreBytes(0, 8))
	runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
	d := c.DeviceStats()
	if d.ActsByGranularity[8] != 1 {
		t.Errorf("baseline write must fully activate, got %v", d.ActsByGranularity)
	}
	if d.WordsWritten != 8 {
		t.Errorf("baseline transfers all words, got %d", d.WordsWritten)
	}
}

func TestPRAMaskMerging(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	// Two same-row writes with different dirty words, queued together:
	// their masks OR into one 2/8 activation (Section 5.2.1).
	c.Write(addrAt(c, Loc{Row: 9, Col: 0}), core.StoreBytes(0, 8))
	c.Write(addrAt(c, Loc{Row: 9, Col: 1}), core.StoreBytes(8, 8))
	runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 2 })
	d := c.DeviceStats()
	if d.ActsByGranularity[2] != 1 || d.Activations() != 1 {
		t.Errorf("want one 2/8 activation, got %v", d.ActsByGranularity)
	}
	s := c.Stats()
	if s.RowHitWrite != 1 {
		t.Errorf("second merged write must count as a row hit, got %d", s.RowHitWrite)
	}
}

func TestQueuedReadForcesFullActivation(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	c.Write(addrAt(c, Loc{Row: 9, Col: 0}), core.StoreBytes(0, 8))
	done := false
	c.Read(addrAt(c, Loc{Row: 9, Col: 1}), core.Untagged(func(int64) { done = true }))
	runUntil(t, c, 0, 100000, func() bool { return done && c.Stats().WritesServed == 1 })
	d := c.DeviceStats()
	// The read is served first (read priority) with a full ACT; the write
	// then hits the open full row: one full activation, no partial.
	if d.ActsByGranularity[8] != 1 || d.Activations() != 1 {
		t.Errorf("want one full activation, got %v", d.ActsByGranularity)
	}
	if c.Stats().FalseHitRead != 0 {
		t.Error("no false hit expected when the read activates first")
	}
}

func TestFalseRowBufferHitOnRead(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	// Three same-row writes keep the partial row open (relaxed policy sees
	// pending beneficiaries).
	for i := 0; i < 3; i++ {
		c.Write(addrAt(c, Loc{Row: 9, Col: i}), core.StoreBytes(0, 8))
	}
	var cpu int64
	cpu = runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed >= 1 })
	// The row is now open with a partial mask; a read to it false-hits.
	done := false
	c.Read(addrAt(c, Loc{Row: 9, Col: 7}), core.Untagged(func(int64) { done = true }))
	runUntil(t, c, cpu+1, 200000, func() bool { return done })
	if got := c.Stats().FalseHitRead; got != 1 {
		t.Errorf("false read hits = %d, want 1", got)
	}
}

func TestFalseRowBufferHitOnWrite(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	for i := 0; i < 3; i++ {
		c.Write(addrAt(c, Loc{Row: 9, Col: i}), core.StoreBytes(0, 8)) // word 0
	}
	cpu := runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed >= 1 })
	// A write needing word 7, outside the open 1/8 mask, false-hits.
	c.Write(addrAt(c, Loc{Row: 9, Col: 7}), core.StoreBytes(56, 8))
	runUntil(t, c, cpu+1, 200000, func() bool { return c.Stats().WritesServed == 4 })
	if got := c.Stats().FalseHitWrite; got != 1 {
		t.Errorf("false write hits = %d, want 1", got)
	}
}

func TestWriteForwarding(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	addr := addrAt(c, Loc{Row: 3})
	c.Write(addr, core.FullByteMask)
	done := false
	c.Read(addr, core.Untagged(func(int64) { done = true }))
	runUntil(t, c, 0, 1000, func() bool { return done })
	if c.Stats().Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", c.Stats().Forwarded)
	}
}

func TestWriteMergeInQueue(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = PRA })
	addr := addrAt(c, Loc{Row: 4})
	c.Write(addr, core.StoreBytes(0, 8))
	c.Write(addr, core.StoreBytes(8, 8)) // merges with the first
	runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed >= 1 })
	s := c.Stats()
	if s.WritesServed != 1 {
		t.Errorf("writes served = %d, want 1 (merged)", s.WritesServed)
	}
	if got := c.DeviceStats().WordsWritten; got != 2 {
		t.Errorf("merged write must carry 2 words, got %d", got)
	}
}

func TestReadQueueLimit(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.ReadQ = 4 })
	accepted := 0
	for i := 0; i < 8; i++ {
		// All to channel 0, distinct rows.
		if c.Read(addrAt(c, Loc{Row: i}), core.Untagged(func(int64) {})) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d reads, want 4", accepted)
	}
	if c.Stats().ReadRejects != 4 {
		t.Errorf("rejects = %d, want 4", c.Stats().ReadRejects)
	}
}

// TestRefusedAgreesWithEnqueue holds Refused to what Read and Write would
// answer — including the write that merges into a full queue — and to
// booking exactly n refusals when, and only when, it says yes.
func TestRefusedAgreesWithEnqueue(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.ReadQ, cfg.WriteQ, cfg.HighWM, cfg.LowWM = 2, 2, 2, 1 })
	if c.Refused(addrAt(c, Loc{Row: 9}), false, 5) || c.Refused(addrAt(c, Loc{Row: 9}), true, 5) {
		t.Error("empty queues refuse nothing")
	}
	for i := 0; i < 2; i++ {
		c.Read(addrAt(c, Loc{Row: i}), core.Untagged(func(int64) {}))
		c.Write(addrAt(c, Loc{Row: i}), core.FullByteMask)
	}
	if !c.Refused(addrAt(c, Loc{Row: 9}), false, 5) || !c.Refused(addrAt(c, Loc{Row: 9}), true, 7) {
		t.Error("full queues must refuse a new line")
	}
	if c.Refused(addrAt(c, Loc{Row: 1}), true, 7) {
		t.Error("a write to a queued line merges even into a full queue")
	}
	if s := c.Stats(); s.ReadRejects != 5 || s.WriteRejects != 7 {
		t.Errorf("booked %d read and %d write refusals, want 5 and 7", s.ReadRejects, s.WriteRejects)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) {
		cfg.WriteQ, cfg.HighWM, cfg.LowWM = 16, 8, 2
	})
	// Park a stream of reads so writes would otherwise starve.
	for i := 0; i < 32; i++ {
		c.Read(addrAt(c, Loc{Row: 100 + i}), core.Untagged(func(int64) {}))
	}
	for i := 0; i < 10; i++ {
		c.Write(addrAt(c, Loc{Row: i, Rank: 1}), core.FullByteMask)
	}
	runUntil(t, c, 0, 500000, func() bool {
		s := c.Stats()
		return s.WritesServed >= 8 // drained past the high watermark
	})
}

func TestRestrictedClosePolicyNoHits(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) {
		cfg.Policy = RestrictedClose
		cfg.Mapping = LineInterleaved
	})
	done := 0
	for col := 0; col < 4; col++ {
		c.Read(addrAt(c, Loc{Row: 5, Col: col}), core.Untagged(func(int64) { done++ }))
	}
	runUntil(t, c, 0, 200000, func() bool { return done == 4 })
	s := c.Stats()
	if s.RowHitRead != 0 {
		t.Errorf("restricted close-page must have 0 row hits, got %d", s.RowHitRead)
	}
	d := c.DeviceStats()
	if d.Activations() != 4 || d.Precharges != 4 {
		t.Errorf("want 4 ACT + 4 PRE, got %d/%d", d.Activations(), d.Precharges)
	}
}

func TestFGAReadSlower(t *testing.T) {
	t.Parallel()
	latency := func(s Scheme) int64 {
		c := newCtl(t, func(cfg *Config) { cfg.Scheme = s })
		var doneAt int64 = -1
		c.Read(0x4000, core.Untagged(func(at int64) { doneAt = at }))
		runUntil(t, c, 0, 10000, func() bool { return doneAt >= 0 })
		return doneAt
	}
	base, fga := latency(Baseline), latency(FGA)
	// FGA needs 8 extra data-bus cycles per 64B (16 bursts): 4 memory
	// cycles = 16 CPU cycles more.
	if fga != base+16 {
		t.Errorf("FGA latency %d, baseline %d; want +16 CPU cycles", fga, base)
	}
}

func TestRefreshOccursWhenIdle(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	for cpu := int64(0); cpu < 4*8000; cpu++ { // > tREFI memory cycles
		c.Tick(cpu)
	}
	if got := c.DeviceStats().Refreshes; got < 2 {
		t.Errorf("refreshes = %d, want >= 2 (both channels)", got)
	}
}

func TestPowerDownWhenIdle(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	for cpu := int64(0); cpu < 4000; cpu++ {
		c.Tick(cpu)
	}
	if got := c.DeviceStats().PowerDownCycles; got == 0 {
		t.Error("idle ranks must power down")
	}
}

func TestHalfDRAMUsesLessActEnergy(t *testing.T) {
	t.Parallel()
	energyFor := func(s Scheme) float64 {
		c := newCtl(t, func(cfg *Config) { cfg.Scheme = s })
		done := false
		c.Read(0x8000, core.Untagged(func(int64) { done = true }))
		runUntil(t, c, 0, 10000, func() bool { return done })
		return c.Energy()[power.CompActPre]
	}
	if hd, base := energyFor(HalfDRAM), energyFor(Baseline); hd >= base {
		t.Errorf("Half-DRAM ACT energy %v must be below baseline %v", hd, base)
	}
}

func TestPRAWriteIOEnergyScales(t *testing.T) {
	t.Parallel()
	energyFor := func(s Scheme) float64 {
		c := newCtl(t, func(cfg *Config) { cfg.Scheme = s })
		c.Write(addrAt(c, Loc{Row: 2}), core.StoreBytes(0, 8))
		runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
		b := c.Energy()
		return b[power.CompWrODT] + b[power.CompWrTerm]
	}
	pra, base := energyFor(PRA), energyFor(Baseline)
	if pra >= base/4 {
		t.Errorf("PRA 1-word write I/O energy %v should be ~1/8 of baseline %v", pra, base)
	}
}

func TestPendingReflectsQueues(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	if c.Pending() {
		t.Error("fresh controller must be idle")
	}
	done := false
	c.Read(0x100, core.Untagged(func(int64) { done = true }))
	if !c.Pending() {
		t.Error("queued read must report pending")
	}
	runUntil(t, c, 0, 10000, func() bool { return done })
	if c.Pending() {
		t.Error("drained controller must be idle")
	}
}

func TestChannelsSplitTraffic(t *testing.T) {
	t.Parallel()
	c := newCtl(t, nil)
	// The channels count into one Stats, so the split is read off the
	// command stream.
	reads := make([]int, len(c.chans))
	c.OnCommand(func(ch int, e dram.CmdEvent) {
		if e.Kind == dram.CmdRead {
			reads[ch]++
		}
	})
	served := 0
	for i := 0; i < 16; i++ {
		c.Read(uint64(i)*64, core.Untagged(func(int64) { served++ }))
	}
	runUntil(t, c, 0, 100000, func() bool { return served == 16 })
	// Row-interleaved: even lines channel 0, odd lines channel 1. Both
	// channels must have served reads.
	for i, n := range reads {
		if n == 0 {
			t.Errorf("channel %d served no reads", i)
		}
	}
}

// TestDeviceStatsTotalTheChannels pins that every channel counts into the
// controller's one dram.Stats: on four channels under PRA, DeviceStats'
// column, precharge and per-granularity activation counts equal the
// commands all the channels issued.
func TestDeviceStatsTotalTheChannels(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Channels, cfg.Scheme = 4, PRA })
	var want dram.Stats
	cmds := make([]int, len(c.chans))
	c.OnCommand(func(ch int, e dram.CmdEvent) {
		cmds[ch]++
		switch e.Kind {
		case dram.CmdAct:
			want.ActsByGranularity[e.Mask.Granularity()]++
		case dram.CmdRead:
			want.Reads++
		case dram.CmdWrite:
			want.Writes++
		case dram.CmdPre:
			want.Precharges++
		}
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 128; i++ {
		addr := uint64(rng.Intn(1<<18)) * 64
		if i%3 == 0 {
			c.Write(addr, core.ByteMask(1)<<rng.Intn(64))
		} else {
			c.Read(addr, core.Untagged(func(int64) {}))
		}
	}
	runUntil(t, c, 0, 1_000_000, func() bool { return !c.Pending() })
	for i, n := range cmds {
		if n == 0 {
			t.Errorf("channel %d issued no commands", i)
		}
	}
	got := c.DeviceStats()
	if got.Reads != want.Reads || got.Writes != want.Writes || got.Precharges != want.Precharges ||
		got.ActsByGranularity != want.ActsByGranularity {
		t.Errorf("DeviceStats RD %d WR %d PRE %d ACT %v, want the channels' %d %d %d %v",
			got.Reads, got.Writes, got.Precharges, got.ActsByGranularity,
			want.Reads, want.Writes, want.Precharges, want.ActsByGranularity)
	}
	if want.Writes == 0 || want.Activations() == want.ActsByGranularity[8] {
		t.Errorf("traffic too tame: %d writes, activations %v", want.Writes, want.ActsByGranularity)
	}
}

// TestCrossChannelCompletionOrder pins the cross-channel visibility rule
// of one DRAM tick: channels tick in index order and completion callbacks
// fire inline, so same-tick completions arrive in channel order, and a
// request a callback on channel i enqueues is seen by channel j > i in
// the same tick but by channel j <= i only in the next one. Front ends
// (cache fills spawning writebacks) depend on exactly this order.
func TestCrossChannelCompletionOrder(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.Channels = 4 })

	type completion struct {
		what string
		ch   int
		cpu  int64 // CPU cycle of the Tick call that fired the callback
		at   int64 // completion time handed to the callback
	}
	var log []completion
	var cpu int64
	note := func(what string, ch int) core.Done {
		return core.Untagged(func(at int64) { log = append(log, completion{what, ch, cpu, at}) })
	}
	// A write followed by a read of the same line: the read is served
	// from the write queue at the top of the channel's next tick.
	forward := func(ch int) {
		addr := addrAt(c, Loc{Channel: ch, Row: 9})
		if !c.Write(addr, core.FullByteMask) || !c.Read(addr, note("fwd", ch)) {
			t.Fatalf("forward pair into channel %d rejected", ch)
		}
	}

	// One read per channel to the same (rank, bank, row): the channels run
	// in lockstep and complete at the same tick. Channel 1's completion
	// spawns forward pairs into a higher and a lower channel.
	for ch := 0; ch < 4; ch++ {
		done := note("read", ch)
		if ch == 1 {
			inner := done.Fn
			done = core.Untagged(func(at int64) {
				inner(at)
				forward(3)
				forward(0)
			})
		}
		if !c.Read(addrAt(c, Loc{Channel: ch, Row: 3}), done) {
			t.Fatal("seed read rejected")
		}
	}
	for cpu = 0; len(log) < 6 && cpu < 10000; cpu++ {
		c.Tick(cpu)
	}

	if len(log) != 6 {
		t.Fatalf("got %d completions, want 6: %+v", len(log), log)
	}
	t0, at0 := log[0].cpu, log[0].at
	next := c.CPUAt(c.MemAt(t0) + 1)
	want := []completion{
		{"read", 0, t0, at0},
		{"read", 1, t0, at0},
		{"read", 2, t0, at0},
		{"fwd", 3, t0, t0}, // j > i: same tick, before channel 3's own read
		{"read", 3, t0, at0},
		{"fwd", 0, next, next}, // j <= i: next tick
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("completion %d = %+v, want %+v", i, log[i], want[i])
		}
	}
}
