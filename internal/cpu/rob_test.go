package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// queueMem accepts every access and holds its tagged completion until the
// test releases it.
type queueMem struct{ pending []core.Done }

func (m *queueMem) Load(coreID int, addr uint64, now int64, done core.Done) bool {
	m.pending = append(m.pending, done)
	return true
}

func (m *queueMem) Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool {
	m.pending = append(m.pending, done)
	return true
}

// release runs the pending completions at the given indices, in that
// order, and drops them from the queue.
func (m *queueMem) release(at int64, order []int) {
	gone := make(map[int]bool, len(order))
	for _, i := range order {
		m.pending[i].Fn(at)
		gone[i] = true
	}
	keep := m.pending[:0]
	for i, d := range m.pending {
		if !gone[i] {
			keep = append(keep, d)
		}
	}
	m.pending = keep
}

// randomScript mixes compute ops, loads (a third of them dependent) and
// stores.
func randomScript(rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 5:
			ops[i] = Op{Kind: Compute}
		case r < 8:
			ops[i] = Op{Kind: Load, Addr: uint64(rng.Intn(1 << 20)), Dep: rng.Intn(3) == 0}
		default:
			ops[i] = Op{Kind: Store, Addr: uint64(rng.Intn(1 << 20)), Bytes: 0xFF}
		}
	}
	return ops
}

func saveCore(c *Core) []byte {
	w := &checkpoint.Writer{}
	c.SaveState(w)
	return w.Bytes()
}

var robTestConfigs = []Config{DefaultConfig(), {Width: 3, ROB: 14, LDQ: 4, STQ: 3}}

// TestSameCycleCompletionOrderIsFree pins the commutativity the cache's
// completion lanes rely on: two cores given the same completions on every
// cycle, one in queue order and one shuffled, stay in the same state.
func TestSameCycleCompletionOrderIsFree(t *testing.T) {
	for ci, cfg := range robTestConfigs {
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		script := randomScript(rng, 6000)
		memA, memB := &queueMem{}, &queueMem{}
		a, _ := New(0, cfg, &scriptGen{ops: script}, memA)
		b, _ := New(0, cfg, &scriptGen{ops: script}, memB)
		shuffled := 0
		for now := int64(0); now < 2500; now++ {
			a.Tick(now)
			b.Tick(now)
			var pick []int
			for i := range memA.pending {
				if rng.Intn(4) == 0 {
					pick = append(pick, i)
				}
			}
			memA.release(now, pick)
			rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
			memB.release(now, pick)
			if len(pick) > 1 {
				shuffled++
			}
			if !bytes.Equal(saveCore(a), saveCore(b)) {
				t.Fatalf("config %d cycle %d: core state depends on the order of %d same-cycle completions", ci, now, len(pick))
			}
		}
		if shuffled < 100 || a.Loads == 0 || a.Stores == 0 {
			t.Fatalf("config %d: %d multi-completion cycles, %d loads, %d stores: the stream did not exercise the claim",
				ci, shuffled, a.Loads, a.Stores)
		}
	}
}

// TestCheckpointIgnoresRingRotation runs the same instruction stream on
// two cores whose rings sit at different rotations (one retired twelve
// dispatch groups of compute ops before the common point): their
// checkpoints must be byte-identical on every cycle. A restore — head back
// at slot 0, the stale serials of done slots gone, callbacks rebound
// through the resolver — must then continue in lockstep with both, bytes
// included.
func TestCheckpointIgnoresRingRotation(t *testing.T) {
	for ci, cfg := range robTestConfigs {
		rng := rand.New(rand.NewSource(int64(ci) + 11))
		script := randomScript(rng, 4000)
		lead := func(n int) []Op { return append(make([]Op, n), script...) } // n compute ops first
		memA, memB := &queueMem{}, &queueMem{}
		genA := &scriptGen{ops: lead(cfg.Width)}
		a, _ := New(0, cfg, genA, memA)
		b, _ := New(0, cfg, &scriptGen{ops: lead(cfg.Width * 13)}, memB)
		// One Tick dispatches Width ops and retires the previous Width:
		// after 13 of them b holds the same Width done compute ops as a
		// does after one, twelve groups further round the ring.
		a.Tick(0)
		for i := int64(0); i < 13; i++ {
			b.Tick(i)
		}
		a.ResetStats()
		b.ResetStats()
		if a.head == b.head {
			t.Fatalf("config %d: both rings at head %d", ci, a.head)
		}

		step := func(now int64, cores []*Core, mems []*queueMem) {
			var pick []int
			for i := range mems[0].pending {
				if rng.Intn(5) == 0 {
					pick = append(pick, i)
				}
			}
			for i, c := range cores {
				mems[i].release(now, pick)
				c.Tick(now)
			}
			want := saveCore(cores[0])
			for _, c := range cores[1:] {
				if !bytes.Equal(saveCore(c), want) {
					t.Fatalf("config %d cycle %d: checkpoint bytes differ between rings at heads %d and %d",
						ci, now, cores[0].head, c.head)
				}
			}
		}
		now := int64(100)
		for ; now < 700; now++ {
			step(now, []*Core{a, b}, []*queueMem{memA, memB})
		}

		// Restore a's state into a fresh core and rebind a's pending
		// completions through the resolver.
		memC := &queueMem{}
		c, _ := New(0, cfg, &scriptGen{ops: genA.ops, i: genA.i}, memC)
		commit, resolve, err := c.RestoreState(checkpoint.NewReader(saveCore(a)))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range memA.pending {
			rebound, ok := resolve(d.Tag)
			if !ok {
				t.Fatalf("config %d: pending completion %+v does not resolve", ci, d.Tag)
			}
			memC.pending = append(memC.pending, rebound)
		}
		commit()
		if c.head != 0 || !bytes.Equal(saveCore(c), saveCore(a)) {
			t.Fatalf("config %d: restore did not reproduce the state at head 0 (head %d)", ci, c.head)
		}
		for ; now < 1400; now++ {
			step(now, []*Core{a, b, c}, []*queueMem{memA, memB, memC})
		}
		if a.Loads < 50 || a.Retired < 1000 {
			t.Fatalf("config %d: only %d loads, %d retired", ci, a.Loads, a.Retired)
		}
	}
}

// TestDepAcrossSlotReuse walks the pointer-chase rule across every way the
// last load's slot can be reused. With a 4-slot ROB the load A takes slot
// 0, three compute ops fill the ring, and the op under test lands in slot
// 0 again after A retired; the dependent load D behind it must dispatch
// unless the load it depends on is still in flight.
func TestDepAcrossSlotReuse(t *testing.T) {
	cfg := Config{Width: 1, ROB: 4, LDQ: 4, STQ: 4}
	loadA := Op{Kind: Load, Addr: 0x40}
	depD := Op{Kind: Load, Addr: 0x80, Dep: true}
	fill := []Op{{Kind: Compute}, {Kind: Compute}, {Kind: Compute}}
	for _, tc := range []struct {
		name      string
		reuse     []Op // lands in A's slot once A has retired
		completeX bool // complete the load in reuse
		refuse    bool // the hierarchy refuses D's first attempts
		wantLoads int  // loads the hierarchy saw by the end
	}{
		{name: "compute op", reuse: []Op{{Kind: Compute}}, wantLoads: 2},
		{name: "store", reuse: []Op{{Kind: Store, Addr: 0xC0, Bytes: 0xFF}}, wantLoads: 2},
		{name: "newer load, done", reuse: []Op{{Kind: Load, Addr: 0xC0}}, completeX: true, wantLoads: 3},
		{name: "newer load, in flight", reuse: []Op{{Kind: Load, Addr: 0xC0}}, wantLoads: 2},
		{name: "refused attempt of D itself", refuse: true, wantLoads: 2},
	} {
		mem := &fakeMem{}
		ops := append([]Op{loadA}, fill...)
		ops = append(ops, tc.reuse...)
		ops = append(ops, depD)
		c, _ := New(0, cfg, &scriptGen{ops: ops}, mem)

		now := int64(0)
		tick := func(n int) {
			for ; n > 0; n-- {
				c.Tick(now)
				now++
			}
		}
		tick(4) // A and the three compute ops fill the ring
		if c.count != cfg.ROB || c.lastSlot != 0 || mem.loads != 1 {
			t.Fatalf("%s: set-up: count %d, last load in slot %d, %d loads", tc.name, c.count, c.lastSlot, mem.loads)
		}
		tick(3) // in flight, A holds the head: nothing moves
		if c.Retired != 0 {
			t.Fatalf("%s: retired %d past an in-flight load", tc.name, c.Retired)
		}
		mem.completeAll(now)
		if tc.refuse {
			// D's attempt binds slot 0 — A's old slot — and is refused,
			// leaving the slot marked in flight under a serial no load
			// owns; the retry must not read that as "A in flight".
			mem.refuseLoads = true
			tick(3)
			if c.tail != 0 || c.done[0] {
				t.Fatalf("%s: refused attempt did not go through slot 0 (tail %d)", tc.name, c.tail)
			}
			mem.refuseLoads = false
		}
		tick(1) // A retires; the op under test takes slot 0
		if c.tail != 1 {
			t.Fatalf("%s: op under test did not land in slot 0 (tail %d)", tc.name, c.tail)
		}
		if tc.completeX {
			mem.completeAll(now)
		}
		tick(6)
		if mem.loads != tc.wantLoads {
			t.Errorf("%s: hierarchy saw %d loads, want %d", tc.name, mem.loads, tc.wantLoads)
		}
	}
}

// TestRestoreRejectsSerialInDoneSlot: SaveState writes serial 0 for a done
// slot, so any other value there is damage — accepted, it would restore to
// different bytes than the file holds.
func TestRestoreRejectsSerialInDoneSlot(t *testing.T) {
	c, _ := New(3, DefaultConfig(), &scriptGen{}, &queueMem{})
	c.Tick(0) // dispatches Width compute ops: done slots
	data := saveCore(c)
	if data[8] != 1 {
		t.Fatalf("slot 0 not done in % x", data[:17])
	}
	data[8+1] = 7 // low byte of slot 0's serial, after the count and the done flag
	fresh, _ := New(3, DefaultConfig(), &scriptGen{}, &queueMem{})
	_, _, err := fresh.RestoreState(checkpoint.NewReader(data))
	if want := "corrupt checkpoint: cpu 3: done ROB slot 0 carries serial 7"; err == nil || err.Error() != want {
		t.Fatalf("restore: %v, want %q", err, want)
	}
	if fresh.count != 0 {
		t.Error("failed restore touched the core")
	}
}
