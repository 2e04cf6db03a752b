package cpu

import (
	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Checkpointing (DESIGN.md §4e). The core's dynamic state is the ROB ring
// (slot completion flags and in-flight load serials), the store queue
// occupancy and the pre-fetched pending op. Neither the load queue
// occupancy (the slots still waiting for their load) nor the retirement
// statistics (zero at the warmup boundary) is saved. The
// ROB is canonicalized on save — written from the head as if the head were
// slot 0, with the stale serial of a done slot written as 0 (and refused on
// restore if it is anything else) — so two identical pipeline states produce
// identical bytes regardless of how the ring happened to be rotated or what
// its slots held before, and a restored file re-serializes to itself. The
// pointer-chase anchor is not saved: it matters only while the last load is
// in flight, and that load is the one in-flight serial equal to loadSerial-1.
// Completion callbacks held by the cache hierarchy are not saved here —
// they are tagged (core.DoneTag) and rebound through the resolver
// RestoreState returns.

// state states the core's saved fields once, in payload order. A done
// slot's serial is stale (nothing reads it), so it is stated as 0; saving
// clears it in the live ring.
func (c *Core) state(k *checkpoint.Codec) {
	k.Int(&c.count)
	if c.count < 0 || c.count > c.cfg.ROB {
		k.Fail("cpu %d: ROB count %d of %d", c.ID, c.count, c.cfg.ROB)
		return
	}
	for i := 0; i < c.count; i++ {
		slot := (c.head + i) % c.cfg.ROB
		k.Bool(&c.done[slot])
		if c.done[slot] {
			c.serial[slot] = 0
		}
		k.U64(&c.serial[slot])
		if c.done[slot] && c.serial[slot] != 0 {
			k.Fail("cpu %d: done ROB slot %d carries serial %d", c.ID, i, c.serial[slot])
		}
	}
	k.Int(&c.stqUsed)
	k.U64(&c.loadSerial)
	k.Bool(&c.hasPending)
	if c.hasPending {
		c.pending.State(k)
	}
	k.Bool(&c.idle)
}

// State states the op's fields once for checkpoint codec k.
func (op *Op) State(k *checkpoint.Codec) {
	checkpoint.U8(k, &op.Kind)
	k.U64(&op.Addr)
	checkpoint.Word(k, &op.Bytes)
	k.Bool(&op.Dep)
}

// SaveState appends the core's dynamic state.
func (c *Core) SaveState(w *checkpoint.Writer) { c.state(checkpoint.Saving(w)) }

// RestoreState decodes a SaveState payload. It returns a commit that
// installs the state (head canonicalized to 0) and a resolver mapping the
// completion tags the hierarchy holds for this core — in-flight load
// serials and the shared store completion — back to the callbacks of the
// slots the commit will put those loads in. The resolver is valid
// immediately; the commit must still run for the decoded flags to become
// the live ROB. On error the core is untouched.
func (c *Core) RestoreState(r *checkpoint.Reader) (func(), func(tag core.DoneTag) (core.Done, bool), error) {
	t := *c
	t.head, t.done, t.serial, t.pending = 0, make([]bool, c.cfg.ROB), make([]uint64, c.cfg.ROB), Op{}
	t.state(checkpoint.Restoring(r))
	t.tail = t.count % c.cfg.ROB
	// The last load matters only while it is in flight, and then it is the
	// in-flight load with the newest serial.
	t.ldqUsed, t.lastSlot = 0, -1
	for i := 0; i < t.count; i++ {
		if !t.done[i] {
			t.ldqUsed++
			if t.serial[i] == t.loadSerial-1 {
				t.lastSlot = i
			}
		}
	}
	if t.ldqUsed > c.cfg.LDQ || t.stqUsed < 0 || t.stqUsed > c.cfg.STQ {
		r.Fail("cpu %d: queue occupancy LDQ=%d STQ=%d", c.ID, t.ldqUsed, t.stqUsed)
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}

	resolve := func(tag core.DoneTag) (core.Done, bool) {
		switch tag.Kind {
		case core.DoneStore:
			return core.Done{Fn: c.storeDone, Tag: tag}, true
		case core.DoneLoad:
			// Serials are unique among in-flight loads (assigned at
			// dispatch, and a slot is only reused after completion), so a
			// linear scan is unambiguous.
			for i := 0; i < t.count; i++ {
				if !t.done[i] && t.serial[i] == tag.Serial {
					return core.Done{Fn: c.onDone[i], Tag: tag}, true
				}
			}
		}
		return core.Done{}, false
	}
	// The per-slot callbacks write c.done through the field, so installing
	// the new arrays rebinds them to the restored ring.
	return func() { *c = t }, resolve, nil
}
