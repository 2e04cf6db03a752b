package memctrl

import (
	"testing"

	"pradram/internal/dram"
)

// The controller derives its DRAM clock from the CPU clock with a stride
// counter (nextMemAt) instead of a per-Tick division. These tests pin the
// counter to the arithmetic it replaced, on every speed grade in
// strideBins: with p/q CPU cycles per memory cycle, memory cycle m starts
// at CPU cycle ⌈m·p/q⌉, so MemCycle() after Tick(cpu) must equal
// ⌊cpu·q/p⌋. They cover SkipTo's realignment too, including its
// same-window fast path, so fast-forwarded runs stamp request arrivals
// exactly as per-cycle runs do.

// strideBins are the speed grades, slowest first, with the reduced
// CPU:memory clock ratio p/q each must run at.
var strideBins = []struct {
	name string
	p, q int64
}{{"DDR3-800", 8, 1}, {"DDR3-1066", 6, 1}, {"DDR3-1333", 24, 5}, {"DDR3-1600", 4, 1}, {"DDR3-1866", 24, 7}, {"DDR3-2133", 3, 1}}

// strideClock is one bin's controller with its ratio's two directions:
// memOf(cpu) is the last memory cycle started by CPU cycle cpu, and
// cpuOf(m) the CPU cycle memory cycle m starts at.
type strideClock struct {
	*Controller
	p, q int64
}

func (s strideClock) memOf(cpu int64) int64 { return cpu * s.q / s.p }
func (s strideClock) cpuOf(m int64) int64   { return (m*s.p + s.q - 1) / s.q }

// forEachStrideBin runs f as a parallel subtest per bin, on a fresh
// controller at that bin's timing.
func forEachStrideBin(t *testing.T, f func(t *testing.T, c strideClock)) {
	for _, b := range strideBins {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			g, ok := dram.SpeedGradeByName(b.name)
			if !ok {
				t.Fatalf("no speed grade %s", b.name)
			}
			cfg := DefaultConfig()
			cfg.Timing = g.Timing
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f(t, strideClock{c, b.p, b.q})
		})
	}
}

func TestMemCycleSequencePerCycle(t *testing.T) {
	t.Parallel()
	forEachStrideBin(t, func(t *testing.T, c strideClock) {
		if c.MemCycle() != -1 {
			t.Fatalf("MemCycle before any tick = %d, want -1", c.MemCycle())
		}
		for cpu := int64(0); cpu < c.cpuOf(25)+3; cpu++ {
			c.Tick(cpu)
			if got, want := c.MemCycle(), c.memOf(cpu); got != want {
				t.Fatalf("after Tick(%d): MemCycle = %d, want ⌊%d·%d/%d⌋ = %d", cpu, got, cpu, c.q, c.p, want)
			}
		}
	})
}

func TestSkipToRealignsStride(t *testing.T) {
	t.Parallel()
	forEachStrideBin(t, func(t *testing.T, c strideClock) {
		// Establish some history, then jump to targets that land on and
		// off DRAM-tick boundaries; after resuming per-cycle ticking from
		// each target the sequence must rejoin ⌊cpu·q/p⌋ immediately.
		for cpu := int64(0); cpu < c.cpuOf(3); cpu++ {
			c.Tick(cpu)
		}
		for _, target := range []int64{
			c.cpuOf(5),        // exactly on a boundary: next tick runs DRAM work
			c.cpuOf(9) + 1,    // just past a boundary
			c.cpuOf(14) - 1,   // just before a boundary
			c.cpuOf(1000),     // far jump, aligned
			c.cpuOf(2000) + 2, // far jump, unaligned
		} {
			c.SkipTo(target)
			// The next DRAM tick is the first memory-cycle start at or
			// after target: one on target itself must not be lost.
			if got, want := c.nextMemAt, c.cpuOf(c.memOf(target-1)+1); got != want {
				t.Fatalf("after SkipTo(%d) the next DRAM tick is at %d, want %d", target, got, want)
			}
			for cpu := target; cpu < c.cpuOf(c.memOf(target)+3); cpu++ {
				c.Tick(cpu)
				if got, want := c.MemCycle(), c.memOf(cpu); got != want {
					t.Fatalf("after SkipTo(%d) and Tick(%d): MemCycle = %d, want %d", target, cpu, got, want)
				}
			}
		}
	})
}

func TestSkipToSameWindowIsNoOp(t *testing.T) {
	t.Parallel()
	forEachStrideBin(t, func(t *testing.T, c strideClock) {
		for cpu := int64(0); cpu <= c.cpuOf(7); cpu++ {
			c.Tick(cpu)
		}
		before := c.MemCycle()
		// Targets inside the current DRAM-tick window (the cycles
		// per-cycle ticking would silently pass through) must leave the
		// stride state untouched — this is the fast path SkipTo
		// short-circuits.
		lo, hi := c.cpuOf(7), c.cpuOf(8)
		for _, target := range []int64{lo + 1, (lo + hi + 1) / 2, hi} {
			c.SkipTo(target)
			if c.MemCycle() != before {
				t.Fatalf("SkipTo(%d) inside the current window changed MemCycle %d -> %d", target, before, c.MemCycle())
			}
		}
		// The next boundary tick must still fire exactly once, at the
		// first CPU cycle of memory cycle 8.
		c.Tick(hi)
		if got, want := c.MemCycle(), int64(8); got != want {
			t.Fatalf("boundary tick after in-window SkipTo: MemCycle = %d, want %d", got, want)
		}
	})
}

func TestTickResynchronizesAfterOvershoot(t *testing.T) {
	t.Parallel()
	forEachStrideBin(t, func(t *testing.T, c strideClock) {
		for cpu := int64(0); cpu < c.cpuOf(2); cpu++ {
			c.Tick(cpu)
		}
		// A caller that jumps the clock without calling SkipTo first (the
		// run loop always does, but Tick guards the invariant anyway) is
		// realigned by Tick itself.
		jump := c.cpuOf(50) + 2
		c.Tick(jump)
		if got, want := c.MemCycle(), c.memOf(jump); got != want {
			t.Fatalf("Tick(%d) after overshoot: MemCycle = %d, want %d", jump, got, want)
		}
	})
}

// TestSpeedGradeClockRatio pins the reduced CPU:memory clock ratio p/q
// every speed grade runs at: the paper's 3.2 GHz cores over the bin's
// command clock, half its exact data rate (24/7 at DDR3-1866's 1866⅔ MT/s).
// strideBins must list every grade.
func TestSpeedGradeClockRatio(t *testing.T) {
	t.Parallel()
	grades := dram.SpeedGrades()
	if len(grades) != len(strideBins) {
		t.Fatalf("%d speed grades, %d in strideBins", len(grades), len(strideBins))
	}
	for i, g := range grades {
		cfg := DefaultConfig()
		cfg.Timing = g.Timing
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := strideBins[i]
		if got := c.crossing; g.Name != b.name || got != (crossing{b.p, b.q}) {
			t.Errorf("%s (%d/%d MT/s) runs at %d/%d, want %s at %d/%d", g.Name, g.Timing.Rate.Num, g.Timing.Rate.Den, got.p, got.q, b.name, b.p, b.q)
		}
	}
}
