package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pradram/internal/core"
)

// sinkMem is the backend of the detailed reference route: it accepts every
// write-back and holds each fill until the test delivers it.
type sinkMem struct{ fill core.Done }

func (m *sinkMem) Read(_ uint64, done core.Done) bool { m.fill = done; return true }

func (m *sinkMem) Write(uint64, core.ByteMask) bool { return true }

// deliver completes the held fill, if any.
func (m *sinkMem) deliver() {
	if fill := m.fill; fill.Fn != nil {
		m.fill = core.Done{}
		fill.Fn(0)
	}
}

// detailedAccess runs one access through Load/Store with no time passing:
// a hit's scheduled completion is dropped, and a miss's fill stays held.
func detailedAccess(h *Hierarchy, coreID int, addr uint64, store bool, mask core.ByteMask) {
	done := core.Untagged(func(int64) {})
	if store {
		h.Store(coreID, addr, mask, 0, done)
	} else {
		h.Load(coreID, addr, 0, done)
	}
	for i := range h.lanes {
		h.lanes[i] = lane{}
	}
}

// sameLevel reports the first difference between two levels' state.
func sameLevel(t *testing.T, name string, got, want *level) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(got.tags, want.tags):
		t.Errorf("%s tags differ:\n got %x\nwant %x", name, got.tags, want.tags)
	case !reflect.DeepEqual(got.dirty, want.dirty):
		t.Errorf("%s dirty masks differ:\n got %x\nwant %x", name, got.dirty, want.dirty)
	case !reflect.DeepEqual(got.lasts, want.lasts):
		t.Errorf("%s LRU stamps differ:\n got %v\nwant %v", name, got.lasts, want.lasts)
	case got.tick != want.tick:
		t.Errorf("%s tick %d, want %d", name, got.tick, want.tick)
	}
}

// TestFunctionalMatchesDetailedRoute holds Functional.Access to the
// detailed route it shortcuts: the same access stream through Load/Store
// must leave every level's tags, dirty masks and LRU stamps, the DBI index
// and the write-back counters the same. The stream comes in bursts of 2 to 8
// accesses to one line, each by a core drawn anew, and a miss's fill is held
// until its burst has merged into the MSHR entry, so each fill completes
// several waiters at once, from one core or several. The geometry is small enough that the stream makes dirty
// L1 victims, L2 evictions that pull dirty bytes out of L1 copies, DBI sweeps
// and zero-mask stores; the warm's own backend sees nothing.
func TestFunctionalMatchesDetailedRoute(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := smallConfig()
		cfg.DBI, cfg.RowKey = true, func(addr uint64) uint64 { return addr >> 9 } // 8 lines a row
		mem := newFakeMem()
		h, err := New(cfg, mem)
		if err != nil {
			t.Fatal(err)
		}
		sink := &sinkMem{}
		ref, err := New(cfg, sink)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		f := h.Functional()
		zeroMasks := 0
		for n := 0; n < 20_000; {
			line := uint64(rng.Intn(128)) * 64 // 128 lines: 4x the L2
			for k := 2 + rng.Intn(7); k > 0; k, n = k-1, n+1 {
				coreID := rng.Intn(cfg.Cores)
				addr := line + uint64(rng.Intn(64))&^7
				store := rng.Intn(2) == 0
				var mask core.ByteMask
				if store && rng.Intn(4) > 0 {
					mask = core.StoreBytes(int(addr&63), 1<<rng.Intn(4))
				} else if store {
					zeroMasks++
				}
				f.Access(coreID, addr, store, mask)
				detailedAccess(ref, coreID, addr, store, mask)
			}
			sink.deliver()
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		for c := range h.l1 {
			sameLevel(t, fmt.Sprintf("seed %d: L1[%d]", seed, c), h.l1[c], ref.l1[c])
		}
		sameLevel(t, fmt.Sprintf("seed %d: L2", seed), h.l2, ref.l2)
		if !reflect.DeepEqual(h.dbi, ref.dbi) {
			t.Errorf("seed %d: DBI index differs:\n got %v\nwant %v", seed, h.dbi, ref.dbi)
		}
		g, w := h.Stats, ref.Stats
		if g.Writebacks != w.Writebacks || g.DBIProactive != w.DBIProactive || g.DirtyBytes != w.DirtyBytes {
			t.Errorf("seed %d: write-backs/proactive/dirty bytes %d/%d/%d, detailed route %d/%d/%d", seed,
				g.Writebacks, g.DBIProactive, g.DirtyBytes, w.Writebacks, w.DBIProactive, w.DirtyBytes)
		}
		if w.DBIProactive == 0 || w.Writebacks == w.DBIProactive || zeroMasks == 0 {
			t.Errorf("seed %d: vacuous stream: %d write-backs, %d proactive, %d zero-mask stores",
				seed, w.Writebacks, w.DBIProactive, zeroMasks)
		}
		if len(mem.reads)+len(mem.writes) > 0 {
			t.Errorf("seed %d: the warm reached the backend: %d reads, %d writes", seed, len(mem.reads), len(mem.writes))
		}
	}
}
