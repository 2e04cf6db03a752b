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

// SaveState appends the core's dynamic state.
func (c *Core) SaveState(w *checkpoint.Writer) {
	w.Int(c.count)
	for i := 0; i < c.count; i++ {
		slot := (c.head + i) % c.cfg.ROB
		w.Bool(c.done[slot])
		if c.done[slot] {
			w.U64(0)
		} else {
			w.U64(c.serial[slot])
		}
	}
	w.Int(c.stqUsed)
	w.U64(c.loadSerial)
	w.Bool(c.hasPending)
	if c.hasPending {
		w.U8(uint8(c.pending.Kind))
		w.U64(c.pending.Addr)
		w.U64(uint64(c.pending.Bytes))
		w.Bool(c.pending.Dep)
	}
	w.Bool(c.idle)
}

// RestoreState decodes a SaveState payload. It returns a commit that
// installs the state (head canonicalized to 0) and a resolver mapping the
// completion tags the hierarchy holds for this core — in-flight load
// serials and the shared store completion — back to the callbacks of the
// slots the commit will put those loads in. The resolver is valid
// immediately; the commit must still run for the decoded flags to become
// the live ROB. On error the core is untouched.
func (c *Core) RestoreState(r *checkpoint.Reader) (func(), func(tag core.DoneTag) (core.Done, bool), error) {
	count := r.Int()
	if count < 0 || count > c.cfg.ROB {
		r.Fail("cpu %d: ROB count %d of %d", c.ID, count, c.cfg.ROB)
		count = 0
	}
	done := make([]bool, c.cfg.ROB)
	serial := make([]uint64, c.cfg.ROB)
	ldqUsed := 0
	for i := 0; i < count; i++ {
		done[i] = r.Bool()
		serial[i] = r.U64()
		if done[i] && serial[i] != 0 {
			r.Fail("cpu %d: done ROB slot %d carries serial %d", c.ID, i, serial[i])
		}
		if !done[i] {
			ldqUsed++
		}
	}
	stqUsed := r.Int()
	loadSerial := r.U64()
	hasPending := r.Bool()
	var pending Op
	if hasPending {
		pending = Op{
			Kind:  OpKind(r.U8()),
			Addr:  r.U64(),
			Bytes: core.ByteMask(r.U64()),
			Dep:   r.Bool(),
		}
	}
	idle := r.Bool()
	if ldqUsed > c.cfg.LDQ || stqUsed < 0 || stqUsed > c.cfg.STQ {
		r.Fail("cpu %d: queue occupancy LDQ=%d STQ=%d", c.ID, ldqUsed, stqUsed)
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
			for i := 0; i < count; i++ {
				if !done[i] && serial[i] == tag.Serial {
					return core.Done{Fn: c.onDone[i], Tag: tag}, true
				}
			}
		}
		return core.Done{}, false
	}

	commit := func() {
		// The per-slot callbacks write c.done through the field, so
		// replacing the arrays rebinds them to the restored ring.
		c.done, c.serial = done, serial
		c.head = 0
		c.tail = count % c.cfg.ROB
		c.count = count
		// The last load matters only while it is in flight, and then it
		// is the in-flight load with the newest serial.
		c.lastSlot = -1
		for i := 0; i < count; i++ {
			if !done[i] && serial[i] == loadSerial-1 {
				c.lastSlot = i
			}
		}
		c.ldqUsed = ldqUsed
		c.stqUsed = stqUsed
		c.loadSerial = loadSerial
		c.pending = pending
		c.hasPending = hasPending
		c.idle = idle
	}
	return commit, resolve, nil
}
