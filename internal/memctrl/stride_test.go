package memctrl

import (
	"math"
	"testing"

	"pradram/internal/dram"
)

// The controller derives its DRAM clock from the CPU clock with a stride
// counter (nextMemAt) instead of a per-Tick division. These tests pin the
// counter to the arithmetic it replaced — MemCycle() after Tick(cpu) must
// equal floor(cpu/CPUPerMem) — and cover SkipTo's realignment, including
// its same-window fast path, so fast-forwarded runs stamp request arrivals
// exactly as per-cycle runs do.

func strideController(t *testing.T) *Controller {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMemCycleSequencePerCycle(t *testing.T) {
	t.Parallel()
	c := strideController(t)
	cpm := c.CPUPerMem()
	if c.MemCycle() != -1 {
		t.Fatalf("MemCycle before any tick = %d, want -1", c.MemCycle())
	}
	for cpu := int64(0); cpu < 25*cpm+3; cpu++ {
		c.Tick(cpu)
		if got, want := c.MemCycle(), cpu/cpm; got != want {
			t.Fatalf("after Tick(%d): MemCycle = %d, want floor(%d/%d) = %d", cpu, got, cpu, cpm, want)
		}
	}
}

func TestSkipToRealignsStride(t *testing.T) {
	t.Parallel()
	c := strideController(t)
	cpm := c.CPUPerMem()
	// Establish some history, then jump to targets that land on and off
	// DRAM-tick boundaries; after resuming per-cycle ticking from each
	// target the sequence must rejoin floor(cpu/cpm) immediately.
	for cpu := int64(0); cpu < 3*cpm; cpu++ {
		c.Tick(cpu)
	}
	for _, target := range []int64{
		5 * cpm,      // exactly on a boundary: next tick runs DRAM work
		9*cpm + 1,    // just past a boundary
		14*cpm - 1,   // just before a boundary
		1000 * cpm,   // far jump, aligned
		2000*cpm + 3, // far jump, unaligned
	} {
		c.SkipTo(target)
		for cpu := target; cpu < target+2*cpm; cpu++ {
			c.Tick(cpu)
			if got, want := c.MemCycle(), cpu/cpm; got != want {
				t.Fatalf("after SkipTo(%d) and Tick(%d): MemCycle = %d, want %d", target, cpu, got, want)
			}
		}
	}
}

func TestSkipToSameWindowIsNoOp(t *testing.T) {
	t.Parallel()
	c := strideController(t)
	cpm := c.CPUPerMem()
	for cpu := int64(0); cpu <= 7*cpm; cpu++ {
		c.Tick(cpu)
	}
	before := c.MemCycle()
	// Targets inside the current DRAM-tick window (the cycles per-cycle
	// ticking would silently pass through) must leave the stride state
	// untouched — this is the fast path SkipTo short-circuits.
	for _, target := range []int64{7*cpm + 1, 7*cpm + cpm/2, 8 * cpm} {
		c.SkipTo(target)
		if c.MemCycle() != before {
			t.Fatalf("SkipTo(%d) inside the current window changed MemCycle %d -> %d", target, before, c.MemCycle())
		}
	}
	// The next boundary tick must still fire exactly once at 8*cpm.
	c.Tick(8 * cpm)
	if got, want := c.MemCycle(), int64(8); got != want {
		t.Fatalf("boundary tick after in-window SkipTo: MemCycle = %d, want %d", got, want)
	}
}

func TestTickResynchronizesAfterOvershoot(t *testing.T) {
	t.Parallel()
	c := strideController(t)
	cpm := c.CPUPerMem()
	for cpu := int64(0); cpu < 2*cpm; cpu++ {
		c.Tick(cpu)
	}
	// A caller that jumps the clock without calling SkipTo first (the run
	// loop always does, but Tick guards the invariant anyway) is realigned
	// by Tick itself.
	jump := 50*cpm + 2
	c.Tick(jump)
	if got, want := c.MemCycle(), jump/cpm; got != want {
		t.Fatalf("Tick(%d) after overshoot: MemCycle = %d, want %d", jump, got, want)
	}
}

// TestSpeedGradeClockRatio pins the CPU:memory clock ratio every speed
// grade runs at: round(tCK · 3.2 GHz), the paper's cores over the bin's
// command clock.
func TestSpeedGradeClockRatio(t *testing.T) {
	t.Parallel()
	want := map[string]int64{"DDR3-800": 8, "DDR3-1066": 6, "DDR3-1333": 5, "DDR3-1600": 4, "DDR3-1866": 3, "DDR3-2133": 3}
	for _, g := range dram.SpeedGrades() {
		cfg := DefaultConfig()
		cfg.Timing = g.Timing
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.CPUPerMem(); got != want[g.Name] || got != int64(math.Round(g.Timing.TCKNs*3.2)) {
			t.Errorf("%s (tCK %g ns) runs at ratio %d, want %d", g.Name, g.Timing.TCKNs, got, want[g.Name])
		}
	}
}
