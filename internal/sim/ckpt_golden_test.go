package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
	"pradram/internal/memctrl"
)

// ckptSections names every variable-length section of a System checkpoint
// that only a populated warmup boundary writes.
var ckptSections = []string{
	"ROB", "generator queue", "MSHR", "retry", "L1 lane", "L2 lane",
	"write-back", "DBI row", "row counter", "queued read", "queued write", "forward",
}

// field returns v's struct field name, through a pointer.
func field(v reflect.Value, name string) reflect.Value { return reflect.Indirect(v).FieldByName(name) }

// sectionSizes counts the entries of each of ckptSections in s, reading
// the components' unexported fields by reflection.
func sectionSizes(s *System) map[string]int {
	n := map[string]int{}
	for _, c := range s.cores {
		n["ROB"] += int(field(reflect.ValueOf(c), "count").Int())
		n["generator queue"] += field(reflect.ValueOf(c.Generator()), "queue").Len()
	}
	h := reflect.ValueOf(s.hier)
	n["MSHR"] = field(h, "mshr").Len()
	n["retry"] = field(h, "retryFills").Len()
	n["L1 lane"] = int(field(field(h, "lanes").Index(0), "n").Int())
	n["L2 lane"] = int(field(field(h, "lanes").Index(1), "n").Int())
	n["write-back"] = field(h, "wbs").Len()
	n["DBI row"] = field(h, "dbi").Len()
	chans := field(reflect.ValueOf(s.ctrl), "chans")
	for i := 0; i < chans.Len(); i++ {
		cc := chans.Index(i)
		rowCtr := field(field(cc, "ch"), "rowCtr")
		for j := 0; j < rowCtr.Len(); j++ {
			n["row counter"] += rowCtr.Index(j).Len()
		}
		n["queued read"] += int(field(cc, "n").Index(0).Int())
		n["queued write"] += int(field(cc, "n").Index(1).Int())
		n["forward"] += field(cc, "forwards").Len()
	}
	return n
}

// holds reports whether cache level tags (a reflected []uint64) holds line id.
func holds(tags reflect.Value, id uint64) bool {
	for i := 0; i < tags.Len(); i++ {
		if tags.Index(i).Uint() == id {
			return true
		}
	}
	return false
}

// cachedLines returns the tags of core 0's L1 and of the L2.
func cachedLines(s *System) (l1, l2 reflect.Value) {
	h := reflect.ValueOf(s.hier)
	return field(field(h, "l1").Index(0), "tags"), field(field(h, "l2"), "tags")
}

// uncachedLine returns a line id at or above 1<<24 that no cache of core 0
// holds.
func uncachedLine(s *System) uint64 {
	l1, l2 := cachedLines(s)
	id := uint64(1) << 24
	for holds(l1, id) || holds(l2, id) {
		id++
	}
	return id
}

// storeLine stores to line id from core 0 at the current cycle.
func storeLine(t *testing.T, s *System, id uint64) {
	t.Helper()
	done := core.Done{Fn: func(int64) {}, Tag: core.DoneTag{Kind: core.DoneStore}}
	if !s.hier.Store(0, id<<6, core.StoreBytes(0, 8), s.cycle, done) {
		t.Fatalf("store to line %#x refused", id)
	}
}

// stirBoundary adds, after the warmup, the traffic no natural boundary
// leaves behind (completion lanes drain before the last core retires, and a
// forwarded read completes at its channel's next DRAM tick): core 0 stores
// to a line of its L1 and to a line only the L2 holds, both hits, and to an
// uncached line whose write-back the controller still holds, so the fill
// read is forwarded.
func stirBoundary(t *testing.T, s *System) {
	t.Helper()
	l1, l2 := cachedLines(s)
	const empty = ^uint64(0)
	var inL1, inL2 uint64 = empty, empty
	for i := 0; i < l2.Len(); i++ {
		if id := l2.Index(i).Uint(); id != empty && !holds(l1, id) {
			inL2 = id
			break
		}
	}
	for i := 0; i < l1.Len(); i++ {
		if id := l1.Index(i).Uint(); id != empty {
			inL1 = id
			break
		}
	}
	if inL1 == empty || inL2 == empty {
		t.Fatal("warmup left no L1 line or no L2-only line")
	}
	storeLine(t, s, inL1)
	storeLine(t, s, inL2)
	uncached := uncachedLine(s)
	if !s.ctrl.Write(uncached<<6, core.FullByteMask) {
		t.Fatal("controller refused the write-back")
	}
	storeLine(t, s, uncached)
}

// TestRestoreRejectsUnmatchedFills: every issued MSHR entry has exactly one
// restored read (queued or forwarded) carrying its fill. Two reads of one
// line would both bind to the entry, and the second completion would fill a
// recycled entry; an issued entry no read carries would never complete.
// System.Restore refuses both, naming the line.
func TestRestoreRejectsUnmatchedFills(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig("LinkedList")
	cfg.Cores = 1
	cfg.WarmupPerCore = 2_000
	warm := func() *System {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Warmup(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctrlBytes := func(s *System) []byte {
		var w checkpoint.Writer
		s.ctrl.SaveState(&w)
		return w.Bytes()
	}
	checkpointOf := func(s *System) []byte {
		data, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Two reads of one line: the miss's own and a second one.
	s := warm()
	line := uncachedLine(s)
	storeLine(t, s, line)
	if !s.ctrl.Read(line<<6, core.Done{Fn: func(int64) {}, Tag: core.DoneTag{Kind: core.DoneFill, Serial: line}}) {
		t.Fatal("controller refused the second read")
	}
	twice := checkpointOf(s)

	// No read: the controller section of the same system before the miss.
	s = warm()
	before := ctrlBytes(s)
	storeLine(t, s, line)
	after := checkpointOf(s)
	body := after[:len(after)-4-len(ctrlBytes(s))]
	unclaimed := recrc(append(append(append([]byte(nil), body...), before...), 0, 0, 0, 0))

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"as stored", after, ""},
		{"two reads", twice, fmt.Sprintf("memctrl: read of line %#x: cache: two reads claim the fill of line %#x", line, line)},
		{"no read", unclaimed, fmt.Sprintf("cache: no read carries the fill of line %#x", line)},
	} {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = r.Restore(tc.data)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != "corrupt checkpoint: "+tc.want || !errors.Is(err, checkpoint.ErrCorrupt)):
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// ckptCell is one warmed configuration of the checkpoint golden.
type ckptCell struct {
	name string
	cfg  Config
	stir bool // stirBoundary after the warmup
}

// ckptCells returns the checkpoint golden's configurations, which between
// them populate every section of ckptSections. The first is
// TestRestoreMutationSweep's original configuration.
func ckptCells() []ckptCell {
	sweep := quickCheckpointCfg("GUPS")
	sweep.Scheme = memctrl.PRA
	sweep.DBI = true
	sweep.MitThreshold = hammerMitThreshold

	// Eight cores' misses overflow one channel's read queue: retries.
	retrying := DefaultConfig("GUPS")
	retrying.Scheme = memctrl.PRA
	retrying.DBI = true
	retrying.Cores = 8
	retrying.Channels = 1
	retrying.WarmupPerCore = 3_000

	// Long alert back-offs fill the write queue: write-backs wait.
	stalled := DefaultConfig("MIX1")
	stalled.Scheme = memctrl.PRA
	stalled.DBI = true
	stalled.Channels = 1
	stalled.MitThreshold = hammerMitThreshold
	stalled.MitAlertCycles = 2_000
	stalled.WarmupPerCore = 5_074

	stirred := DefaultConfig("bzip2")
	stirred.Cores = 1
	stirred.WarmupPerCore = 1_678

	return []ckptCell{
		{"gups-pra-dbi-mit", sweep, false},
		{"gups-8core-1ch", retrying, false},
		{"mix1-1ch-alert", stalled, false},
		{"bzip2-stirred", stirred, true},
	}
}

// warmed builds the cell's system and brings it to its checkpoint boundary.
func (c ckptCell) warmed(t *testing.T) *System {
	t.Helper()
	s, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	if c.stir {
		stirBoundary(t, s)
	}
	return s
}

// TestCheckpointPayloadGolden pins the length and sha256 of the whole
// System.Checkpoint payload (testdata/ckpt.golden) for the warmed
// configurations of ckptCells, and requires each payload to restore into a
// fresh system that checkpoints to the same bytes. A change to how any
// component encodes its state must leave the file byte-identical unless the
// format is meant to change (then ckptFormat moves too; regenerate with
// -update).
func TestCheckpointPayloadGolden(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	covered := map[string]bool{}
	for _, c := range ckptCells() {
		s := c.warmed(t)
		data, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %d bytes sha256 %x\n", c.name, len(data), sha256.Sum256(data))
		sizes := sectionSizes(s)
		t.Logf("%s: %v", c.name, sizes)
		for _, sec := range ckptSections {
			covered[sec] = covered[sec] || sizes[sec] > 0
		}

		r, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(data); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again, err := r.Checkpoint(); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: restore -> checkpoint changed the bytes (err %v)", c.name, err)
		}
	}
	checkGolden(t, "ckpt.golden", out.String())
	for _, sec := range ckptSections {
		if !covered[sec] {
			t.Errorf("no cell populates the %s section", sec)
		}
	}
}
