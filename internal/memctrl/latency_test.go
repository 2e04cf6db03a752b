package memctrl

import (
	"reflect"
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/stats"
)

func TestLatComponentNames(t *testing.T) {
	t.Parallel()
	want := []string{"queue", "bank", "timing", "refresh", "pd", "alert", "xfer"}
	for c := LatComponent(0); c < NumLatComponents; c++ {
		if c.String() != want[c] {
			t.Errorf("component %d = %q, want %q", c, c.String(), want[c])
		}
	}
	if NumLatComponents.String() != "LatComponent(7)" {
		t.Error("out-of-range component must stringify as LatComponent(7)")
	}
}

// TestSweepWaitPartition pins the deadline-sweep convention on synthetic
// terms: ascending clamped deadlines each own the stretch back to the
// previous one, terms at or before the mark vanish, and completion turns
// the unexplained remainder into queue time so the breakdown sums exactly.
func TestSweepWaitPartition(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.LatBreak = true
	cc := &chanCtl{cfg: &cfg}
	cc.latHistBank = make([]stats.LogHist, cfg.Geom.Ranks*cfg.Geom.Banks)

	req := &request{kind: core.Read, arrive: 10, mark: 10}
	var terms dram.LatTerms
	terms[dram.TermBank] = 30
	terms[dram.TermTiming] = 20
	terms[dram.TermRefresh] = 5 // released before the mark: contributes nothing
	cc.sweepWait(req, 40, &terms)
	if req.mark != 40 {
		t.Fatalf("mark = %d, want 40", req.mark)
	}
	var want LatBreakdown
	want[LatTiming] = 10 // [10, 20)
	want[LatBank] = 10   // [20, 30)
	if req.brk != want {
		t.Fatalf("sweep breakdown = %v, want %v", req.brk, want)
	}

	// Column issued at 40, data done at 47: 7 cycles transfer, the
	// unblamed [30, 40) becomes queue, and the total is conserved.
	cc.completeLat(req, 40, 47)
	if req.brk[LatXfer] != 7 || req.brk[LatQueue] != 10 {
		t.Fatalf("completion breakdown = %v, want xfer 7 queue 10", req.brk)
	}
	if req.brk.Sum() != 47-10 {
		t.Fatalf("breakdown sum %d != latency %d", req.brk.Sum(), 47-10)
	}
	if cc.stats.ReadLatBreak != req.brk || cc.stats.ReadLatHist.N != 1 {
		t.Fatalf("channel aggregates not updated: %v N=%d", cc.stats.ReadLatBreak, cc.stats.ReadLatHist.N)
	}
	if got := cc.latHistBank[0].N; got != 1 {
		t.Fatalf("per-bank histogram N = %d, want 1", got)
	}
}

// TestSweepWaitAlertClamp pins that an alert deadline beyond the issue
// cycle (defensive — the schedule gate makes it unreachable) clamps to it,
// and that sweepWait with LatBreak off still advances the mark.
func TestSweepWaitAlertClamp(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.LatBreak = true
	cc := &chanCtl{cfg: &cfg, mitigationEngine: mitigationEngine{alertUntil: 100}}
	req := &request{arrive: 0, mark: 0}
	var terms dram.LatTerms
	cc.sweepWait(req, 40, &terms)
	if req.brk[LatAlert] != 40 || req.brk.Sum() != 40 {
		t.Fatalf("breakdown = %v, want 40 cycles of alert", req.brk)
	}

	cfg2 := DefaultConfig()
	off := &chanCtl{cfg: &cfg2}
	req2 := &request{arrive: 0, mark: 0}
	off.sweepWait(req2, 40, &terms)
	if req2.mark != 40 || req2.brk != (LatBreakdown{}) {
		t.Fatalf("LatBreak off: mark %d brk %v, want 40 and zeros", req2.mark, req2.brk)
	}
}

// TestSpanRingWraps drives the sampler past the ring capacity and checks
// the oldest spans are overwritten in order.
func TestSpanRingWraps(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.LatBreak = true
	cfg.LatSpanEvery = 1
	cc := &chanCtl{cfg: &cfg}
	req := &request{kind: core.Read}
	for i := 0; i < latSpanCap+10; i++ {
		req.arrive = int64(i)
		cc.recordSpan(req, int64(i)+5)
	}
	if len(cc.spans) != latSpanCap || cc.spanHead != 10 {
		t.Fatalf("ring len %d head %d, want %d/10", len(cc.spans), cc.spanHead, latSpanCap)
	}
	if cc.spans[cc.spanHead].Arrive != 10 {
		t.Fatalf("oldest surviving span arrives at %d, want 10", cc.spans[cc.spanHead].Arrive)
	}
}

// latTraffic drives a mixed read/write pattern with row hits, bank
// conflicts, write forwarding, and cross-rank traffic, returning the
// completion cycles in arrival order.
func latTraffic(t *testing.T, c *Controller) []int64 {
	t.Helper()
	var doneAt []int64
	served := 0
	enq := func(i int) {
		l := Loc{Rank: i % 2, Bank: i % 8, Row: (i * 7) % 64, Col: i % 4}
		slot := len(doneAt)
		doneAt = append(doneAt, -1)
		if !c.Read(addrAt(c, l), core.Untagged(func(at int64) { doneAt[slot] = at; served++ })) {
			t.Fatal("read rejected")
		}
		c.Write(addrAt(c, Loc{Rank: (i + 1) % 2, Bank: i % 8, Row: i % 16}), core.StoreBytes((i%8)*8, 8))
		if i%9 == 0 { // forwarding: read of a just-written line
			slot := len(doneAt)
			doneAt = append(doneAt, -1)
			c.Read(addrAt(c, Loc{Rank: (i + 1) % 2, Bank: i % 8, Row: i % 16}), core.Untagged(func(at int64) { doneAt[slot] = at; served++ }))
		}
	}
	next := 0
	for cpu := int64(0); cpu < 300000; cpu++ {
		if cpu%512 == 0 && next < 96 {
			enq(next)
			next++
		}
		c.Tick(cpu)
	}
	for cpu := int64(300000); served < len(doneAt); cpu++ {
		c.Tick(cpu)
		if cpu > 600000 {
			t.Fatal("traffic did not drain")
		}
	}
	return doneAt
}

// TestLatConservation runs mixed traffic spanning refresh windows with
// mitigation armed and asserts the hard invariant: the per-component
// breakdowns sum exactly to the latency sums, and the histograms saw every
// served request.
func TestLatConservation(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) {
		cfg.LatBreak = true
		cfg.LatSpanEvery = 3
		cfg.MitThreshold = 3
	})
	latTraffic(t, c)
	s := c.Stats()
	if s.ReadLatBreak.Sum() != s.ReadLatencySum {
		t.Errorf("read conservation: breakdown %v sums %d, latency sum %d",
			s.ReadLatBreak, s.ReadLatBreak.Sum(), s.ReadLatencySum)
	}
	if s.WriteLatBreak.Sum() != s.WriteLatencySum {
		t.Errorf("write conservation: breakdown %v sums %d, latency sum %d",
			s.WriteLatBreak, s.WriteLatBreak.Sum(), s.WriteLatencySum)
	}
	for comp := LatComponent(0); comp < NumLatComponents; comp++ {
		if s.ReadLatBreak[comp] < 0 || s.WriteLatBreak[comp] < 0 {
			t.Errorf("negative %v component: read %d write %d", comp, s.ReadLatBreak[comp], s.WriteLatBreak[comp])
		}
	}
	if s.ReadLatHist.N != s.ReadsServed || s.WriteLatHist.N != s.WritesServed {
		t.Errorf("histogram N = %d/%d, served %d/%d", s.ReadLatHist.N, s.WriteLatHist.N, s.ReadsServed, s.WritesServed)
	}
	var bankN int64
	for _, cc := range c.chans {
		for _, h := range cc.latHistBank {
			bankN += h.N
		}
	}
	if bankN != s.ReadsServed {
		t.Errorf("per-bank histograms cover %d reads, served %d", bankN, s.ReadsServed)
	}
	if s.ReadLatBreak[LatXfer] == 0 || s.ReadLatBreak[LatBank] == 0 {
		t.Errorf("transfer/bank components empty under real traffic: %v", s.ReadLatBreak)
	}
	if s.Alerts == 0 || s.ReadLatBreak[LatAlert]+s.WriteLatBreak[LatAlert] == 0 {
		t.Errorf("mitigation armed (alerts=%d) but no alert time attributed", s.Alerts)
	}
	for _, sp := range c.LatSpans() {
		if sp.Break.Sum() != sp.Done-sp.Arrive {
			t.Errorf("span %+v breakdown does not sum to its latency", sp)
		}
	}
	if len(c.LatSpans()) == 0 {
		t.Error("sampling enabled but no spans recorded")
	}
}

// TestLatBreakOffBitIdentity runs identical traffic with attribution on and
// off: completion cycles and every simulated statistic must match exactly;
// only the attribution fields may differ.
func TestLatBreakOffBitIdentity(t *testing.T) {
	t.Parallel()
	run := func(latBreak bool) ([]int64, Stats, dram.Stats) {
		c := newCtl(t, func(cfg *Config) {
			cfg.LatBreak = latBreak
			if latBreak {
				cfg.LatSpanEvery = 2
			}
			cfg.MitThreshold = 3
		})
		doneAt := latTraffic(t, c)
		return doneAt, c.Stats(), c.DeviceStats()
	}
	doneOn, sOn, dOn := run(true)
	doneOff, sOff, dOff := run(false)
	if !reflect.DeepEqual(doneOn, doneOff) {
		t.Fatal("completion cycles differ between LatBreak on and off")
	}
	if dOn != dOff {
		t.Fatalf("device stats differ:\non  %+v\noff %+v", dOn, dOff)
	}
	// Zero the attribution-only fields on the enabled run; everything else
	// must be bit-identical.
	sOn.ReadLatBreak = LatBreakdown{}
	sOn.WriteLatBreak = LatBreakdown{}
	sOn.ReadLatHist = stats.LogHist{}
	sOn.WriteLatHist = stats.LogHist{}
	if sOn != sOff {
		t.Fatalf("controller stats differ beyond attribution fields:\non  %+v\noff %+v", sOn, sOff)
	}
}

// TestLatAttributionPowerDown wakes an idle (powered-down) controller with
// a read and checks the exit latency lands in the PD component.
func TestLatAttributionPowerDown(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) { cfg.LatBreak = true })
	for cpu := int64(0); cpu < 8000; cpu++ { // idle long enough to power down
		c.Tick(cpu)
	}
	if c.DeviceStats().PowerDownCycles == 0 {
		t.Fatal("precondition: ranks did not power down")
	}
	done := false
	c.Read(0x1000, core.Untagged(func(int64) { done = true }))
	for cpu := int64(8000); !done; cpu++ {
		c.Tick(cpu)
		if cpu > 30000 {
			t.Fatal("read did not complete")
		}
	}
	if got := c.Stats().ReadLatBreak[LatPD]; got == 0 {
		t.Errorf("power-down exit not attributed: %v", c.Stats().ReadLatBreak)
	}
}

// TestLatAttributionRefresh enqueues a read the cycle a refresh begins and
// checks the tRFC block lands in the refresh component.
func TestLatAttributionRefresh(t *testing.T) {
	t.Parallel()
	c := newCtl(t, func(cfg *Config) {
		cfg.LatBreak = true
		cfg.Channels = 1
	})
	cpu := int64(0)
	for c.DeviceStats().Refreshes == 0 {
		c.Tick(cpu)
		cpu++
		if cpu > 100000 {
			t.Fatal("no refresh issued while idle")
		}
	}
	done := false
	c.Read(0x1000, core.Untagged(func(int64) { done = true }))
	for ; !done; cpu++ {
		c.Tick(cpu)
		if cpu > 200000 {
			t.Fatal("read did not complete")
		}
	}
	if got := c.Stats().ReadLatBreak[LatRefresh]; got == 0 {
		t.Errorf("refresh block not attributed: %v", c.Stats().ReadLatBreak)
	}
}
