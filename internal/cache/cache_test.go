package cache

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pradram/internal/checkpoint"
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

// evictLine0 loads two more lines of line 0's set in smallConfig's L2 (16
// sets, 2 ways) at now, which evicts line 0 from the hierarchy: the L2
// eviction pulls in the L1 copy's dirty bytes and writes them back.
func evictLine0(h *Hierarchy, mem *fakeMem, now int64) {
	h.Load(0, 16*64, now, core.Untagged(func(int64) {}))
	h.Load(0, 32*64, now, core.Untagged(func(int64) {}))
	mem.fillAll(now + 1)
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
	i := h.l1[0].index(lineID(0x5000))
	if i < 0 || h.l1[0].dirty[i] != mask {
		t.Fatal("store must dirty the L1 line with its byte mask")
	}
	// A second store widens the mask.
	h.Store(0, 0x5000+16, core.StoreBytes(16, 4), 50, core.Untagged(func(int64) {}))
	if h.l1[0].dirty[i] != mask|core.StoreBytes(16, 4) {
		t.Error("second store must OR into the dirty mask")
	}
}

func TestStoreZeroMaskDefaultsToOneByte(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	h.Store(0, 0x7008, 0, 0, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	i := h.l1[0].index(lineID(0x7008))
	if i < 0 || h.l1[0].dirty[i].DirtyBytes() != 1 {
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
	i := h.l2.index(lineID(0x0000))
	if i < 0 {
		t.Fatal("line must be resident in L2")
	}
	if h.l2.dirty[i] != m1 {
		t.Errorf("L2 dirty mask = %v, want %v", h.l2.dirty[i], m1)
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
	if h.l1[0].index(0) >= 0 {
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
	if !inFlight(h) {
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
	if i := h.l2.index(lineID(0x0040)); i < 0 || h.l2.dirty[i] != 0 {
		t.Error("swept line must remain resident and clean")
	}
}

func TestLRUReplacement(t *testing.T) {
	l := newLevel(1, 2)
	l.install(1, 0)
	l.install(2, 0)
	l.touch(1) // make 1 MRU
	if ev, _ := l.install(3, 0); ev != 2 {
		t.Errorf("LRU victim = %d, want 2", ev)
	}
	if l.index(1) < 0 || l.index(3) < 0 {
		t.Error("lines 1 and 3 must be resident")
	}
}

// inFlight reports whether any miss, completion, writeback or fill retry is
// still outstanding.
func inFlight(h *Hierarchy) bool {
	return len(h.mshr) > 0 || h.queued() > 0 || len(h.wbs) > 0 || len(h.retryFills) > 0
}

func TestDrainReflectsState(t *testing.T) {
	h, mem := newTestHierarchy(t, smallConfig())
	if inFlight(h) {
		t.Error("fresh hierarchy must be drained")
	}
	h.Load(0, 0xA000, 0, core.Untagged(func(int64) {}))
	if !inFlight(h) {
		t.Error("outstanding miss must report undrained")
	}
	mem.fillAll(30)
	if inFlight(h) {
		t.Error("after fill the hierarchy must be drained")
	}
}

// TestRestoreRejectsBadRetryList: the retry list holds exactly the MSHR
// entries the backend refused. A list naming one entry twice would send it
// to the backend twice, and the second fill would complete a recycled
// entry; an unissued entry on no list would never be sent, so its waiters
// would never complete. Restore refuses both, naming the cause.
func TestRestoreRejectsBadRetryList(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(h *Hierarchy)
	}{
		{"as refused", "", func(*Hierarchy) {}},
		{"entry listed twice", "cache: retry entry 0x240 listed twice", func(h *Hierarchy) {
			h.retryFills = append(h.retryFills, h.retryFills[0])
		}},
		{"unissued entry unlisted", "cache: unissued MSHR entry 0x240 is on no retry list", func(h *Hierarchy) {
			h.retryFills = nil
		}},
	} {
		h, mem := newTestHierarchy(t, smallConfig())
		mem.acceptRead = false
		tag := core.DoneTag{Kind: core.DoneLoad, Serial: 1}
		if !h.Load(0, 0x9000, 0, core.Done{Fn: func(int64) {}, Tag: tag}) || len(h.retryFills) != 1 {
			t.Fatal("the refused miss is not on the retry list")
		}
		tc.edit(h)
		w := &checkpoint.Writer{}
		h.SaveState(w)
		fresh, _ := newTestHierarchy(t, smallConfig())
		resolve := func(tag core.DoneTag) (core.Done, bool) { return core.Done{Tag: tag}, true }
		_, _, err := fresh.RestoreState(checkpoint.NewReader(w.Bytes()), resolve)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != "corrupt checkpoint: "+tc.want):
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
		if len(fresh.mshr) != 0 || len(fresh.retryFills) != 0 {
			t.Errorf("%s: restore touched the hierarchy before its commit", tc.name)
		}
	}
}

// TestRestoreRejectsNonCanonicalDBI: SaveState writes DBI rows and their line
// ids in ascending order, and no dirty bytes for an empty way. A payload with
// rows or ids out of order, or one row twice, would restore to different
// bytes than the file carries (a duplicate silently replacing the earlier
// row); dirty bytes on an empty way belong to no line.
func TestRestoreRejectsNonCanonicalDBI(t *testing.T) {
	cfg := smallConfig()
	cfg.DBI = true
	cfg.RowKey = func(addr uint64) uint64 { return addr >> 13 } // 8KB rows
	h, mem := newTestHierarchy(t, cfg)
	for i, addr := range []uint64{1*8192 + 1*64, 2*8192 + 2*64, 2*8192 + 3*64} {
		h.Store(0, addr, core.StoreBytes(0, 8), int64(i), core.Untagged(func(int64) {}))
	}
	mem.fillAll(10)
	w := &checkpoint.Writer{}
	h.SaveState(w)
	good := w.Bytes()

	// From the end: row 2 (key, count, two line ids), row 1 (key, count,
	// one line id).
	const word, row = 8, 24
	row2 := len(good) - row - word
	row1 := row2 - row
	// From the start: L1 0's way count, tags and dirty masks.
	empty := slices.Index(h.l1[0].tags, invalidTag)
	emptyDirty := word + (len(h.l1[0].tags)+empty)*word
	restore := func(edit func(b []byte)) error {
		b := append([]byte(nil), good...)
		edit(b)
		fresh, _ := newTestHierarchy(t, cfg)
		resolve := func(tag core.DoneTag) (core.Done, bool) { return core.Done{Tag: tag}, true }
		_, _, err := fresh.RestoreState(checkpoint.NewReader(b), resolve)
		if len(fresh.dbi) != 0 {
			t.Error("failed restore touched the DBI")
		}
		return err
	}
	if err := restore(func([]byte) {}); err != nil {
		t.Fatalf("unedited payload: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(b []byte)
	}{
		{"rows out of order", "cache: DBI row key 0x2 after 0x3, want ascending", func(b []byte) {
			b[row1] = 3
		}},
		{"duplicate row", "cache: DBI row key 0x2 after 0x2, want ascending", func(b []byte) {
			b[row1] = 2
		}},
		{"line ids out of order", "cache: DBI row 0x2 line id 0x102 after 0x103, want ascending", func(b []byte) {
			b[row2+2*word], b[row2+3*word] = b[row2+3*word], b[row2+2*word]
		}},
		{"dirty empty way", fmt.Sprintf("cache L1.0: empty way %d carries dirty bytes 0x1", empty), func(b []byte) {
			b[emptyDirty] = 1
		}},
	} {
		if err := restore(tc.edit); err == nil || err.Error() != "corrupt checkpoint: "+tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
