package memctrl

import (
	"testing"

	"pradram/internal/core"
)

// benchRNG returns a fixed-seed xorshift generator.
func benchRNG() func() uint64 {
	rng := uint64(0x12345)
	return func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
}

// benchTraffic drives the controller with a synthetic random read/write
// mix and measures ticks per second under load.
func benchTraffic(b *testing.B, scheme Scheme) {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	next := benchRNG()
	outstanding := 0
	b.ResetTimer()
	for cpu := int64(0); cpu < int64(b.N); cpu++ {
		if outstanding < 48 {
			addr := (next() % (4 << 30)) &^ 63
			if next()%2 == 0 {
				if c.Read(addr, core.Untagged(func(int64) { outstanding-- })) {
					outstanding++
				}
			} else {
				c.Write(addr, core.StoreBytes(int(next()%8)*8, 8))
			}
		}
		c.Tick(cpu)
	}
}

func BenchmarkControllerBaseline(b *testing.B) { benchTraffic(b, Baseline) }
func BenchmarkControllerPRA(b *testing.B)      { benchTraffic(b, PRA) }

// saturate keeps both queues full with random rows over CPU cycles
// [from, to) — the GUPS regime, where a scheduling pass sees ~64+64 queued
// requests on almost as many distinct rows. Rejected enqueues are part of
// the regime (the cache retries every cycle against a full queue).
func saturate(c *Controller, next func() uint64, done core.Done, from, to int64) {
	for cpu := from; cpu < to; cpu++ {
		c.Read((next()%(4<<30))&^63, done)
		if cpu%4 == 0 {
			c.Write((next()%(4<<30))&^63, core.StoreBytes(int(next()%8)*8, 8))
		}
		c.Tick(cpu)
	}
}

// benchSaturated measures the saturated loop; one op is one CPU cycle.
func benchSaturated(b *testing.B, scheme Scheme) {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	next := benchRNG()
	b.ResetTimer()
	saturate(c, next, core.Untagged(func(int64) {}), 0, int64(b.N))
}

// TestSaturatedLoopAllocs holds the steady-state Read/Write/Tick loop to
// zero allocations per run of 2000 CPU cycles (500 scheduling passes):
// requests come from the freelist and a pass — settle, the candidate sets,
// the per-pass rank terms — works in place. What is left is a bank list or
// a tFAW window growing past its high-water mark under random traffic, a
// handful of times per million cycles, which AllocsPerRun's integer average
// drops; one allocation per pass or per command would read in the hundreds.
func TestSaturatedLoopAllocs(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, PRA} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		next, done := benchRNG(), core.Untagged(func(int64) {})
		const span = 2000
		cpu := int64(400_000)
		saturate(c, next, done, 0, cpu)
		before := c.DeviceStats()
		if avg := testing.AllocsPerRun(100, func() {
			saturate(c, next, done, cpu, cpu+span)
			cpu += span
		}); avg != 0 {
			t.Errorf("%v: %v allocations per %d saturated cycles, want 0", scheme, avg, span)
		}
		after := c.DeviceStats()
		if cmds := after.Reads + after.Writes - before.Reads - before.Writes; cmds < 100*span/40 {
			t.Errorf("%v: the measured loop issued only %d column commands", scheme, cmds)
		}
	}
}

func BenchmarkControllerSaturatedBaseline(b *testing.B) { benchSaturated(b, Baseline) }
func BenchmarkControllerSaturatedPRA(b *testing.B)      { benchSaturated(b, PRA) }

// BenchmarkControllerSparse keeps at most one read outstanding — the
// pointer-chase regime, where the queues are near empty and any per-pass
// cost that scales with the bank count instead of the queued work shows.
func BenchmarkControllerSparse(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scheme = PRA
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	next := benchRNG()
	outstanding := 0
	done := core.Untagged(func(int64) { outstanding-- })
	b.ResetTimer()
	for cpu := int64(0); cpu < int64(b.N); cpu++ {
		if outstanding == 0 {
			if c.Read((next()%(4<<30))&^63, done) {
				outstanding++
			}
			if next()%4 == 0 {
				c.Write((next()%(4<<30))&^63, core.StoreBytes(int(next()%8)*8, 8))
			}
		}
		c.Tick(cpu)
	}
}

// BenchmarkAddressDecompose measures the mapping hot path.
func BenchmarkAddressDecompose(b *testing.B) {
	am, err := NewAddressMapper(RowInterleaved, 2, DefaultConfig().Geom)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		l := am.Decompose(uint64(i) * 8192)
		sink += l.Bank
	}
	_ = sink
}
