package cache

import (
	"strings"
	"testing"

	"pradram/internal/core"
)

// fakeMem is a controllable backend: it records requests and lets tests
// complete fills explicitly.
type fakeMem struct {
	reads  []uint64
	writes []struct {
		addr uint64
		mask core.ByteMask
	}
	fills       []func(at int64)
	acceptRead  bool
	acceptWrite bool
}

func newFakeMem() *fakeMem { return &fakeMem{acceptRead: true, acceptWrite: true} }

func (m *fakeMem) Read(addr uint64, done core.Done) bool {
	if !m.acceptRead {
		return false
	}
	m.reads = append(m.reads, addr)
	m.fills = append(m.fills, done.Fn)
	return true
}

func (m *fakeMem) Write(addr uint64, mask core.ByteMask) bool {
	if !m.acceptWrite {
		return false
	}
	m.writes = append(m.writes, struct {
		addr uint64
		mask core.ByteMask
	}{addr, mask})
	return true
}

func (m *fakeMem) fillAll(at int64) {
	fills := m.fills
	m.fills = nil
	for _, f := range fills {
		f(at)
	}
}

func newTestHierarchy(t *testing.T, cfg Config) (*Hierarchy, *fakeMem) {
	t.Helper()
	mem := newFakeMem()
	h, err := New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	return h, mem
}

func smallConfig() Config {
	c := DefaultConfig(2)
	c.L1Sets, c.L1Ways = 4, 2
	c.L2Sets, c.L2Ways = 16, 2
	c.MSHRs = 4
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// Each row breaks one field of the default; the error must mention want.
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "core"},
		{"non-power-of-two sets", func(c *Config) { c.L1Sets = 100 }, "powers of two"},
		{"zero MSHRs", func(c *Config) { c.MSHRs = 0 }, "MSHRs"},
		{"DBI without RowKey", func(c *Config) { c.DBI = true }, "RowKey"},
		{"negative L1 latency", func(c *Config) { c.L1Lat = -1 }, "L1Lat"},
		{"negative L2 latency", func(c *Config) { c.L2Lat = -20 }, "L2Lat"},
	} {
		bad := good
		tc.mutate(&bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if _, err := New(bad, newFakeMem()); err == nil {
			t.Errorf("%s: New must reject the config", tc.name)
		}
	}
	zero := good
	zero.L1Lat, zero.L2Lat = 0, 0
	if err := zero.Validate(); err != nil {
		t.Errorf("zero latencies are legal: %v", err)
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil backend must fail")
	}
}

func TestL1HitLatency(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	var doneAt int64 = -1
	if !h.Load(0, 0x1000, 0, core.Untagged(func(at int64) { doneAt = at })) {
		t.Fatal("load refused")
	}
	mem.fillAll(30)
	if doneAt != 30 {
		t.Fatalf("miss completion at %d, want 30", doneAt)
	}
	// Second load hits L1 after L1Lat.
	doneAt = -1
	if !h.Load(0, 0x1000, 100, core.Untagged(func(at int64) { doneAt = at })) {
		t.Fatal("load refused")
	}
	h.Tick(100 + h.cfg.L1Lat)
	if doneAt != 100+h.cfg.L1Lat {
		t.Errorf("L1 hit at %d, want %d", doneAt, 100+h.cfg.L1Lat)
	}
	if h.Stats.L1Hits != 1 || h.Stats.L1Misses != 1 {
		t.Errorf("L1 stats = %d/%d, want 1/1", h.Stats.L1Hits, h.Stats.L1Misses)
	}
}

func TestL2HitFromOtherCore(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	h.Load(0, 0x2000, 0, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	// Core 1 misses L1 but hits the shared L2.
	var doneAt int64 = -1
	h.Load(1, 0x2000, 50, core.Untagged(func(at int64) { doneAt = at }))
	want := 50 + h.cfg.L1Lat + h.cfg.L2Lat
	h.Tick(want)
	if doneAt != want {
		t.Errorf("L2 hit at %d, want %d", doneAt, want)
	}
	if h.Stats.L2Hits != 1 {
		t.Errorf("L2 hits = %d, want 1", h.Stats.L2Hits)
	}
	if len(mem.reads) != 1 {
		t.Errorf("backend reads = %d, want 1", len(mem.reads))
	}
}

func TestMSHRMerging(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	done := 0
	h.Load(0, 0x3000, 0, core.Untagged(func(int64) { done++ }))
	h.Load(1, 0x3000, 1, core.Untagged(func(int64) { done++ }))
	if len(mem.reads) != 1 {
		t.Fatalf("merged misses issued %d reads, want 1", len(mem.reads))
	}
	mem.fillAll(40)
	if done != 2 {
		t.Errorf("completions = %d, want 2", done)
	}
}

func TestMSHRLimit(t *testing.T) {
	cfg := smallConfig()
	cfg.MSHRs = 2
	h, _ := newTestHierarchy(t, cfg)
	if !h.Load(0, 0x0000, 0, core.Untagged(func(int64) {})) || !h.Load(0, 0x4000, 0, core.Untagged(func(int64) {})) {
		t.Fatal("first two misses must be accepted")
	}
	if h.Load(0, 0x8000, 0, core.Untagged(func(int64) {})) {
		t.Error("third miss must be refused (MSHRs full)")
	}
	// Another core has its own budget.
	if !h.Load(1, 0x8000, 0, core.Untagged(func(int64) {})) {
		t.Error("other core's miss must be accepted")
	}
	// Stats must not double-count the refused access.
	if h.Stats.Loads != 3 {
		t.Errorf("loads = %d, want 3", h.Stats.Loads)
	}
}

func TestStoreDirtyPropagation(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	mask := core.StoreBytes(8, 8) // word 1
	h.Store(0, 0x5000, mask, 0, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	ln := h.l1[0].lookup(lineID(0x5000), false)
	if ln == nil || ln.dirty != mask {
		t.Fatal("store must dirty the L1 line with its byte mask")
	}
	// A second store widens the mask.
	h.Store(0, 0x5000+16, core.StoreBytes(16, 4), 50, core.Untagged(func(int64) {}))
	if ln.dirty != mask|core.StoreBytes(16, 4) {
		t.Error("second store must OR into the dirty mask")
	}
}

func TestStoreZeroMaskDefaultsToOneByte(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	h.Store(0, 0x7008, 0, 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	ln := h.l1[0].lookup(lineID(0x7008), false)
	if ln == nil || ln.dirty.DirtyBytes() != 1 {
		t.Error("zero-mask store must dirty one byte")
	}
}

// Force an L1 eviction and check FGD merge into L2 (Section 4.1.4: "its
// dirty bits are ORed with the dirty bits of the corresponding cache line
// in the L2 cache").
func TestL1EvictionMergesFGDIntoL2(t *testing.T) {
	cfg := smallConfig() // L1: 4 sets x 2 ways
	h, mem := newTestHierarchy(t, cfg)
	// Three lines in the same L1 set (stride = sets*64 = 256B).
	m1 := core.StoreBytes(0, 8)
	h.Store(0, 0x0000, m1, 0, core.Untagged(func(int64) {}))
	h.Load(0, 0x0100, 1, core.Untagged(func(int64) {}))
	h.Load(0, 0x0200, 2, core.Untagged(func(int64) {})) // evicts 0x0000 from L1
	mem.fillAll(30)
	// L1 installs happen at fill; the dirty line is evicted during one of
	// them. Its mask must now be in L2.
	h.Load(0, 0x0300, 40, core.Untagged(func(int64) {}))
	mem.fillAll(80)
	l2ln := h.l2.lookup(lineID(0x0000), false)
	if l2ln == nil {
		t.Fatal("line must be resident in L2")
	}
	if l2ln.dirty != m1 {
		t.Errorf("L2 dirty mask = %v, want %v", l2ln.dirty, m1)
	}
}

// Force an L2 eviction of a dirty line and check the writeback carries the
// merged FGD mask and is recorded in the Figure-3 histogram.
func TestL2DirtyEvictionWritesBack(t *testing.T) {
	cfg := smallConfig() // L2: 16 sets x 2 ways
	h, mem := newTestHierarchy(t, cfg)
	stride := uint64(cfg.L2Sets * 64)
	m := core.StoreBytes(0, 16) // words 0,1
	h.Store(0, 0, m, 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	// Fill the same L2 set with two more lines (same L1 set too, but L1
	// merge path is exercised by the earlier test).
	h.Load(0, stride, 20, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	h.Load(0, 2*stride, 40, core.Untagged(func(int64) {}))
	mem.fillAll(50) // evicts line 0 from L2
	if len(mem.writes) != 1 {
		t.Fatalf("writebacks = %d, want 1", len(mem.writes))
	}
	if mem.writes[0].addr != 0 || mem.writes[0].mask != m {
		t.Errorf("writeback = %+v, want addr 0 mask %v", mem.writes[0], m)
	}
	if h.Stats.DirtyWords.N != 1 || h.Stats.DirtyWords.Buckets[2] != 1 {
		t.Error("Figure-3 histogram must record a 2-dirty-word line")
	}
	if h.Stats.DirtyChips.Buckets[8] != 1 {
		t.Error("SDS chip histogram must record 8 chips (two full words)")
	}
	if h.Stats.DirtyBytes != 16 {
		t.Errorf("dirty bytes = %d, want 16", h.Stats.DirtyBytes)
	}
}

// L2 eviction of a line still dirty in an L1 must pull the L1 dirty bits
// into the writeback (inclusion enforcement).
func TestL2EvictionInvalidatesAndMergesL1(t *testing.T) {
	cfg := smallConfig()
	h, mem := newTestHierarchy(t, cfg)
	stride := uint64(cfg.L2Sets * 64)
	m := core.StoreBytes(24, 8) // word 3
	h.Store(0, 0, m, 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	h.Load(1, stride, 20, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	h.Load(1, 2*stride, 40, core.Untagged(func(int64) {}))
	mem.fillAll(50) // evicts line 0 from L2 while core 0's L1 still has it dirty
	if ln := h.l1[0].lookup(0, false); ln != nil {
		t.Error("L1 copy must be invalidated on L2 eviction")
	}
	if len(mem.writes) != 1 || mem.writes[0].mask != m {
		t.Fatalf("writeback must carry the L1 dirty mask, got %+v", mem.writes)
	}
}

func TestBackendRefusalRetried(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	mem.acceptRead = false
	done := false
	h.Load(0, 0x9000, 0, core.Untagged(func(int64) { done = true }))
	if len(mem.reads) != 0 {
		t.Fatal("read must have been refused")
	}
	h.Tick(1)
	if len(mem.reads) != 0 {
		t.Fatal("still refused")
	}
	mem.acceptRead = true
	h.Tick(2)
	if len(mem.reads) != 1 {
		t.Fatal("retry must reach the backend once accepted")
	}
	mem.fillAll(60)
	if !done {
		t.Error("fill must complete the waiter")
	}
}

func TestWritebackRefusalRetried(t *testing.T) {
	cfg := smallConfig()
	h, mem := newTestHierarchy(t, cfg)
	stride := uint64(cfg.L2Sets * 64)
	h.Store(0, 0, core.StoreBytes(0, 8), 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	mem.acceptWrite = false
	h.Load(0, stride, 20, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	h.Load(0, 2*stride, 40, core.Untagged(func(int64) {}))
	mem.fillAll(50)
	if len(mem.writes) != 0 {
		t.Fatal("write must have been refused")
	}
	if !h.Drain() {
		t.Error("hierarchy must report in-flight writebacks")
	}
	mem.acceptWrite = true
	h.Tick(60)
	if len(mem.writes) != 1 {
		t.Error("writeback must be retried")
	}
}

func TestDBISweep(t *testing.T) {
	cfg := smallConfig()
	cfg.DBI = true
	// Row = 128 consecutive lines (8KB).
	cfg.RowKey = func(addr uint64) uint64 { return addr >> 13 }
	h, mem := newTestHierarchy(t, cfg)
	// Dirty two lines of the same DRAM row that live in different L2 sets.
	h.Store(0, 0x0000, core.StoreBytes(0, 8), 0, core.Untagged(func(int64) {}))
	h.Store(0, 0x0040, core.StoreBytes(0, 8), 1, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	// Evict line 0 from L2 by filling its set.
	stride := uint64(cfg.L2Sets * 64)
	h.Load(0, stride, 20, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	h.Load(0, 2*stride, 40, core.Untagged(func(int64) {}))
	mem.fillAll(50)
	// Both the evicted line and its row-mate must be written back.
	if len(mem.writes) != 2 {
		t.Fatalf("writebacks = %d, want 2 (eviction + DBI sweep)", len(mem.writes))
	}
	if h.Stats.DBIProactive != 1 {
		t.Errorf("DBI proactive writebacks = %d, want 1", h.Stats.DBIProactive)
	}
	// The swept line stays resident but clean.
	ln := h.l2.lookup(lineID(0x0040), false)
	if ln == nil || ln.dirty != 0 {
		t.Error("swept line must remain resident and clean")
	}
}

func TestFlushDirty(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	h.Store(0, 0x100, core.StoreBytes(0, 8), 0, core.Untagged(func(int64) {}))
	h.Store(1, 0x200, core.StoreBytes(8, 8), 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	h.FlushDirty()
	if len(mem.writes) != 2 {
		t.Fatalf("flush writebacks = %d, want 2", len(mem.writes))
	}
	if h.Stats.DirtyWords.N != 2 {
		t.Errorf("flush must record histogram entries, got %d", h.Stats.DirtyWords.N)
	}
	// A second flush writes nothing (all clean).
	h.FlushDirty()
	if len(mem.writes) != 2 {
		t.Error("second flush must be a no-op")
	}
}

func TestLRUReplacement(t *testing.T) {
	l := newLevel(1, 2)
	l.install(1, 0)
	l.install(2, 0)
	l.lookup(1, true) // make 1 MRU
	ev := l.install(3, 0)
	if !ev.valid || ev.tag != 2 {
		t.Errorf("LRU victim = %+v, want tag 2", ev)
	}
	if l.lookup(1, false) == nil || l.lookup(3, false) == nil {
		t.Error("lines 1 and 3 must be resident")
	}
}

func TestDrainReflectsState(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	if h.Drain() {
		t.Error("fresh hierarchy must be drained")
	}
	h.Load(0, 0xA000, 0, core.Untagged(func(int64) {}))
	if !h.Drain() {
		t.Error("outstanding miss must report undrained")
	}
	mem.fillAll(30)
	if h.Drain() {
		t.Error("after fill the hierarchy must be drained")
	}
}
