package cpu

import "testing"

// BenchmarkCoreComputeBound is one Tick of a core that never waits on
// memory: Width retirements and Width dispatches through the ROB ring per
// iteration, the per-instruction floor under every cache-resident run.
func BenchmarkCoreComputeBound(b *testing.B) {
	c, err := New(0, DefaultConfig(), &scriptGen{}, &fakeMem{})
	if err != nil {
		b.Fatal(err)
	}
	now := int64(0)
	step := func() {
		c.Tick(now)
		now++
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		b.Fatalf("%v allocs per Tick, want 0", allocs)
	}
	c.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if got, want := c.Retired, int64(b.N)*int64(c.cfg.Width); got != want {
		b.Fatalf("retired %d instructions in %d Ticks, want %d", got, b.N, want)
	}
}
