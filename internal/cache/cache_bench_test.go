package cache

import (
	"testing"

	"pradram/internal/core"
)

// nullMem accepts everything and completes fills immediately.
type nullMem struct{}

func (nullMem) Read(addr uint64, done core.Done) bool      { done.Fn(0); return true }
func (nullMem) Write(addr uint64, mask core.ByteMask) bool { return true }

func BenchmarkL1HitLoad(b *testing.B) {
	h, err := New(DefaultConfig(1), nullMem{})
	if err != nil {
		b.Fatal(err)
	}
	h.Load(0, 0x1000, 0, core.Untagged(func(int64) {}))
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 0x1000, int64(i), core.Untagged(func(int64) { sink++ }))
		h.Tick(int64(i) + 3)
	}
	_ = sink
}

func BenchmarkRandomAccessMix(b *testing.B) {
	h, err := New(DefaultConfig(4), nullMem{})
	if err != nil {
		b.Fatal(err)
	}
	rng := uint64(99)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (next() % (1 << 28)) &^ 63
		coreID := int(next() % 4)
		if next()%4 == 0 {
			h.Store(coreID, addr, core.StoreBytes(int(next()%8)*8, 8), int64(i), core.Untagged(func(int64) {}))
		} else {
			h.Load(coreID, addr, int64(i), core.Untagged(func(int64) {}))
		}
		if i%16 == 0 {
			h.Tick(int64(i) + 25)
		}
	}
}

// BenchmarkHitCompletion is the front end's steady state on a
// cache-resident working set: one access and one Tick per cycle, every
// completion going through a lane. The L2 stream walks eight lines of one
// L1 set (four ways), so each access misses L1 and hits L2. Neither
// stream may allocate.
func BenchmarkHitCompletion(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines uint64
	}{{"L1", 1}, {"L2", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(1)
			h, err := New(cfg, nullMem{})
			if err != nil {
				b.Fatal(err)
			}
			sink := 0
			done := core.Untagged(func(int64) { sink++ })
			now := int64(0)
			step := func() {
				h.Load(0, (uint64(now)%bc.lines)*uint64(cfg.L1Sets)<<6, now, done)
				h.Tick(now)
				now++
			}
			for i := uint64(0); i < 4*bc.lines+64; i++ {
				step() // fill both levels and let the lane reach its size
			}
			laneHits := func() int64 {
				if bc.lines > 1 {
					return h.Stats.L2Hits
				}
				return h.Stats.L1Hits
			}
			before := laneHits()
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				b.Fatalf("%v allocs per access+Tick, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			// AllocsPerRun made 1001 of the steps (one warm-up call).
			if got := laneHits() - before; got != int64(b.N)+1001 {
				b.Fatalf("%d of %d accesses took the %s-hit lane", got, b.N+1001, bc.name)
			}
			if sink == 0 {
				b.Fatal("no completion delivered")
			}
		})
	}
}
