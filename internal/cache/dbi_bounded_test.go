package cache

import (
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

func TestBoundedDBIEvicts(t *testing.T) {
	cfg := smallConfig()
	cfg.DBI = true
	cfg.DBIEntries = 2
	cfg.RowKey = func(addr uint64) uint64 { return addr >> 13 } // 8KB rows
	h, mem := newTestHierarchy(t, cfg)
	// Dirty lines in three distinct DRAM rows (offset into distinct cache
	// sets so no natural L2 eviction interferes): inserting the third row
	// entry must evict the oldest and force-write-back its dirty block.
	h.Store(0, 0*8192+0*64, core.StoreBytes(0, 8), 0, core.Untagged(func(int64) {}))
	h.Store(0, 1*8192+1*64, core.StoreBytes(0, 8), 1, core.Untagged(func(int64) {}))
	mem.fillAll(10)
	if h.Stats.DBIEvictions != 0 {
		t.Fatal("no eviction before capacity reached")
	}
	h.Store(0, 2*8192+2*64, core.StoreBytes(0, 8), 20, core.Untagged(func(int64) {}))
	mem.fillAll(30)
	if h.Stats.DBIEvictions != 1 {
		t.Fatalf("DBI evictions = %d, want 1", h.Stats.DBIEvictions)
	}
	// The evicted row's dirty block was written back and cleaned.
	if len(mem.writes) != 1 || mem.writes[0].addr != 0 {
		t.Fatalf("forced writeback missing: %+v", mem.writes)
	}
	if ln := h.l2.lookup(lineID(0), false); ln == nil || ln.dirty != 0 {
		t.Error("evicted-entry line must stay resident but clean")
	}
}

func TestBoundedDBILazyDeletion(t *testing.T) {
	cfg := smallConfig()
	cfg.DBI = true
	cfg.DBIEntries = 2
	cfg.RowKey = func(addr uint64) uint64 { return addr >> 13 }
	h, mem := newTestHierarchy(t, cfg)
	// Mark row 0, then clean it via FlushDirty (entry becomes stale in
	// the FIFO), then fill two new rows: no spurious eviction of live
	// entries beyond the one needed.
	h.Store(0, 0, core.StoreBytes(0, 8), 0, core.Untagged(func(int64) {}))
	mem.fillAll(5)
	h.FlushDirty() // row 0 cleaned, dbi entry removed, FIFO key stale
	h.Store(0, 1*8192, core.StoreBytes(0, 8), 10, core.Untagged(func(int64) {}))
	h.Store(0, 2*8192, core.StoreBytes(0, 8), 11, core.Untagged(func(int64) {}))
	mem.fillAll(20)
	if h.Stats.DBIEvictions != 0 {
		t.Errorf("stale FIFO entries must not trigger evictions, got %d", h.Stats.DBIEvictions)
	}
	if len(h.dbi) != 2 {
		t.Errorf("live DBI entries = %d, want 2", len(h.dbi))
	}
}

func TestDBIConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.DBI = true
	cfg.RowKey = func(addr uint64) uint64 { return addr >> 13 }
	cfg.DBIEntries = -1
	if cfg.Validate() == nil {
		t.Error("negative DBI capacity must fail")
	}
}

// TestRestoreRejectsNonCanonicalDBI: SaveState writes DBI rows and their line
// ids in ascending order and every row it writes sits in the eviction FIFO.
// A payload with rows or ids out of order, one row twice, or a row the FIFO
// does not hold would restore to different bytes than the file carries (a
// duplicate silently replacing the earlier row) or to a row eviction can
// never reach.
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

	// From the end: now, two FIFO keys, their count, row 2 (key, count, two
	// line ids), row 1 (key, count, one line id).
	const word, row = 8, 24
	fifo0 := len(good) - word - 2*word
	row2 := fifo0 - word - row - word
	row1 := row2 - row
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
		{"row missing from the FIFO", "cache: DBI row 0x1 is not in the eviction FIFO", func(b []byte) {
			b[fifo0] = 9
		}},
	} {
		if err := restore(tc.edit); err == nil || err.Error() != "corrupt checkpoint: "+tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
