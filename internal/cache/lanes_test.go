package cache

import (
	"bytes"
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// refEvent / refHeap are the reference the lanes are held to: a library
// min-heap on the completion cycle, the structure the lanes replaced.
type refEvent struct {
	at int64
	id uint64
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// residentHierarchy returns a two-core hierarchy whose L2 holds lines
// 0..63 (one per set, so nothing is ever evicted from it) and whose L1s
// hold eight lines each: every later access to those lines is an L1 or an
// L2 hit and goes through a completion lane.
func residentHierarchy(t testing.TB) (*Hierarchy, *fakeMem) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 64, 2
	mem := newFakeMem()
	h, err := New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 64; id++ {
		if !h.Load(int(id&1), id<<6, 0, core.Untagged(func(int64) {})) {
			t.Fatalf("preload of line %d refused", id)
		}
		mem.fillAll(0)
	}
	if h.Drain() {
		t.Fatal("preload left work in flight")
	}
	return h, mem
}

// TestLanesMatchReferenceHeap drives the hierarchy and a container/heap
// with the same randomized hit streams — bursts that share a completion
// cycle, both hit latencies interleaved, and an access clock that jumps
// backwards as well as forwards — and demands, on every cycle, the same
// set of delivered completions and the same NextEvent.
func TestLanesMatchReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, mem := residentHierarchy(t)
		preloads := len(mem.reads)
		var ref refHeap
		var got []uint64
		nextID := uint64(0)
		perLane := [numLanes]int{}

		for now := int64(1); now <= 3000; now++ {
			for burst := rng.Intn(6); burst > 0; burst-- {
				// The run loop's clock never runs backwards; this one does,
				// so some completions are born before ones already queued
				// and some are overdue at birth.
				at := now + int64(rng.Intn(9)) - 4
				id := nextID
				nextID++
				l1, l2 := h.Stats.L1Hits, h.Stats.L2Hits
				done := core.Untagged(func(int64) { got = append(got, id) })
				coreID, addr := rng.Intn(2), uint64(rng.Intn(64))<<6
				var ok bool
				if rng.Intn(3) == 0 {
					ok = h.Store(coreID, addr, core.StoreBytes(0, 8), at, done)
				} else {
					ok = h.Load(coreID, addr, at, done)
				}
				if !ok {
					t.Fatalf("seed %d cycle %d: resident access refused", seed, now)
				}
				switch {
				case h.Stats.L1Hits == l1+1:
					heap.Push(&ref, refEvent{at: at + h.cfg.L1Lat, id: id})
					perLane[laneL1]++
				case h.Stats.L2Hits == l2+1:
					heap.Push(&ref, refEvent{at: at + h.cfg.L1Lat + h.cfg.L2Lat, id: id})
					perLane[laneL2]++
				default:
					t.Fatalf("seed %d cycle %d: access to a resident line missed", seed, now)
				}
			}
			if rng.Intn(4) == 0 {
				continue // a skipped Tick: several cycles' completions fall due together
			}

			wantNext := core.FarFuture
			if len(ref) > 0 {
				wantNext = max(ref[0].at, now+1)
			}
			if next := h.NextEvent(now); next != wantNext {
				t.Fatalf("seed %d cycle %d: NextEvent = %d, reference heap says %d", seed, now, next, wantNext)
			}
			var want []uint64
			for len(ref) > 0 && ref[0].at <= now {
				want = append(want, heap.Pop(&ref).(refEvent).id)
			}
			got = got[:0]
			h.Tick(now)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d cycle %d: delivered %v, reference heap delivers %v", seed, now, got, want)
			}
			if h.Drain() != (len(ref) > 0) {
				t.Fatalf("seed %d cycle %d: Drain = %v with %d reference events queued", seed, now, h.Drain(), len(ref))
			}
		}
		if perLane[laneL1] < 100 || perLane[laneL2] < 100 {
			t.Fatalf("seed %d: stream exercised the lanes %v times, want both busy", seed, perLane)
		}
		if len(mem.reads) != preloads {
			t.Fatalf("seed %d: %d backend reads during the hit stream", seed, len(mem.reads)-preloads)
		}
	}
}

// TestLaneCheckpointIgnoresRotation takes a checkpoint with both lanes
// non-empty from two hierarchies in the same state whose rings sit at
// different rotations (one grew and wrapped first): the bytes must be
// identical, and a restore must deliver every completion at its cycle and
// save back to the same bytes.
func TestLaneCheckpointIgnoresRotation(t *testing.T) {
	build := func(rotate int) *Hierarchy {
		h, _ := residentHierarchy(t)
		for i := range h.lanes {
			for j := 0; j < rotate; j++ {
				h.lanes[i].push(event{at: int64(j)})
			}
			for j := 0; j < rotate; j++ {
				h.lanes[i].pop()
			}
		}
		for i := 0; i < 12; i++ {
			// The preload left line 60+c in core c's L1 and no line below
			// 48 in either: every third access is an L1 hit.
			coreID, line := i&1, uint64(i*5%48)
			if i%3 == 0 {
				line = uint64(60 + coreID)
			}
			tag := core.DoneTag{Kind: core.DoneLoad, Core: int32(coreID), Serial: uint64(i)}
			h.Load(coreID, line<<6, 10+int64(i/3), core.Done{Fn: func(int64) {}, Tag: tag})
		}
		if h.lanes[laneL1].n == 0 || h.lanes[laneL2].n == 0 {
			t.Fatalf("lanes hold %d and %d completions, want both non-empty", h.lanes[laneL1].n, h.lanes[laneL2].n)
		}
		return h
	}
	save := func(h *Hierarchy) []byte {
		w := &checkpoint.Writer{}
		h.SaveState(w)
		return w.Bytes()
	}
	a, b := build(0), build(21)
	if a.lanes[laneL1].head == b.lanes[laneL1].head || len(a.lanes[laneL1].buf) == len(b.lanes[laneL1].buf) {
		t.Fatal("the two rings are not at different rotations and sizes")
	}
	data := save(a)
	if !bytes.Equal(data, save(b)) {
		t.Fatal("checkpoint bytes depend on the ring rotation")
	}

	fresh, _ := residentHierarchy(t)
	delivered := map[uint64]int64{}
	resolve := func(tag core.DoneTag) (core.Done, bool) {
		return core.Done{Fn: func(at int64) { delivered[tag.Serial] = at }, Tag: tag}, true
	}
	commit, _, err := fresh.RestoreState(checkpoint.NewReader(data), resolve)
	if err != nil {
		t.Fatal(err)
	}
	commit()
	if !bytes.Equal(save(fresh), data) {
		t.Fatal("save → restore → save changed the bytes")
	}
	want := map[uint64]int64{}
	for i := range a.lanes {
		for j := 0; j < a.lanes[i].n; j++ {
			e := a.lanes[i].nth(j)
			want[e.done.Tag.Serial] = e.at
		}
	}
	for now := int64(0); fresh.Drain(); now++ {
		fresh.Tick(now)
		for serial, at := range want {
			if got, ok := delivered[serial]; ok != (at <= now) || (ok && got != at) {
				t.Fatalf("cycle %d: completion %d due at %d: delivered=%v with cycle %d", now, serial, at, ok, got)
			}
		}
	}
	if len(delivered) != 12 {
		t.Fatalf("restored hierarchy delivered %d completions, want 12", len(delivered))
	}
}

// TestRestoreRejectsUnsortedLane: a lane payload whose completions are out
// of time order is damage, not a state SaveState can produce.
func TestRestoreRejectsUnsortedLane(t *testing.T) {
	h, _ := residentHierarchy(t)
	tag := core.DoneTag{Kind: core.DoneStore}
	h.lanes[laneL2].push(event{at: 40, done: core.Done{Tag: tag}})
	h.lanes[laneL2].push(event{at: 50, done: core.Done{Tag: tag}})
	// Swap the two in place, behind push's back.
	l := &h.lanes[laneL2]
	l.buf[l.head], l.buf[(l.head+1)&(len(l.buf)-1)] = l.nth(1), l.nth(0)
	w := &checkpoint.Writer{}
	h.SaveState(w)

	fresh, _ := residentHierarchy(t)
	resolve := func(tag core.DoneTag) (core.Done, bool) { return core.Done{Tag: tag}, true }
	if _, _, err := fresh.RestoreState(checkpoint.NewReader(w.Bytes()), resolve); err == nil {
		t.Fatal("restore accepted a lane that is out of time order")
	}
	if fresh.Drain() {
		t.Fatal("failed restore left completions behind")
	}
}
