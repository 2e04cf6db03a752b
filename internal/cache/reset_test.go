package cache

import (
	"testing"

	"pradram/internal/core"
)

func TestResetStatsKeepsContents(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	h.Store(0, 0x100, core.StoreBytes(0, 8), 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	if h.Stats.Stores != 1 {
		t.Fatal("store not counted")
	}
	h.ResetStats()
	if h.Stats.Stores != 0 || h.Stats.L1Misses != 0 {
		t.Error("ResetStats must zero counters")
	}
	if h.Stats.DirtyWords == nil || h.Stats.DirtyWords.N != 0 {
		t.Error("ResetStats must produce fresh histograms")
	}
	// The line (and its dirty bytes) must survive the reset.
	done := false
	h.Load(0, 0x100, 20, core.Untagged(func(int64) { done = true }))
	h.Tick(20 + h.cfg.L1Lat)
	if !done {
		t.Fatal("line must still be resident (L1 hit)")
	}
	if h.Stats.L1Hits != 1 {
		t.Error("post-reset hit must be counted from zero")
	}
}

func TestDirtyBitsSurviveReset(t *testing.T) {
	cfg := smallConfig()
	h, mem := newTestHierarchy(t, cfg)
	m := core.StoreBytes(0, 8)
	h.Store(0, 0, m, 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	h.ResetStats()
	evictLine0(h, mem, 20)
	if len(mem.writes) != 1 || mem.writes[0].mask != m {
		t.Fatalf("dirty mask must survive stats reset: %+v", mem.writes)
	}
}
