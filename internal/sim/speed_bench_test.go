package sim

import "testing"

// Full-system wall-clock benchmarks for the event-driven fast-forward
// path, paired skip/noskip so tools/benchgate -speed can gate on their
// ratio without a stored hardware baseline:
//
//   - The memory-bound pair (single-core LinkedList, a pointer chase that
//     leaves the core quiescent for most of every miss) is where skipping
//     must win big; its noskip/skip ratio is the speedup gate.
//   - The compute-bound pair (bzip2, high IPC, few idle stretches) is
//     where skipping has nothing to skip; its gate is that the NextEvent
//     bookkeeping costs (almost) nothing when it never fires.
//
// Runs are deterministic, so every iteration does identical work and
// ns/op differences are pure host effects.

func speedMemBoundCfg() Config {
	cfg := DefaultConfig("LinkedList")
	cfg.InstrPerCore = 150_000
	cfg.WarmupPerCore = 50_000
	cfg.ActiveCores = 1
	return cfg
}

func speedComputeBoundCfg() Config {
	cfg := DefaultConfig("bzip2")
	cfg.InstrPerCore = 150_000
	cfg.WarmupPerCore = 50_000
	return cfg
}

func benchRun(b *testing.B, cfg Config, noskip bool) {
	b.Helper()
	cfg.NoSkip = noskip
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if !noskip && s.cycle == s.ticks && cfg.Workload == "LinkedList" {
			b.Fatal("memory-bound benchmark never fast-forwarded")
		}
	}
}

func BenchmarkSpeedMemBoundSkip(b *testing.B)       { benchRun(b, speedMemBoundCfg(), false) }
func BenchmarkSpeedMemBoundNoSkip(b *testing.B)     { benchRun(b, speedMemBoundCfg(), true) }
func BenchmarkSpeedComputeBoundSkip(b *testing.B)   { benchRun(b, speedComputeBoundCfg(), false) }
func BenchmarkSpeedComputeBoundNoSkip(b *testing.B) { benchRun(b, speedComputeBoundCfg(), true) }
