package cache

import (
	"fmt"
	"slices"
	"strconv"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Checkpointing (DESIGN.md §4e). The hierarchy serializes cache contents
// (line ids, dirty masks, LRU timestamps), the miss machinery (MSHRs,
// waiters, the completion lanes, refused-operation retry lists), and the
// DBI index. Slices are written verbatim and each lane in delivery order
// from its head — restoring them in the stored order preserves delivery
// order exactly, so a restored run is bit-identical to the monolithic one,
// and the bytes do not depend on how a ring happened to be rotated. Map
// contents (the DBI) are written in sorted key order so identical states
// produce identical bytes. What follows from those is rebuilt on restore,
// not saved: each level's LRU clock (the largest timestamp) and the
// per-core MSHR counts (each entry counts against its first waiter's
// core).
//
// Statistics are NOT serialized: checkpoints are taken at the warmup
// boundary, immediately after ResetStats, so a freshly built hierarchy
// already matches. Completion callbacks are rebound through their
// core.DoneTag via the resolver the CPU restore provides; the fill
// callbacks this hierarchy hands the backend are rebound through the
// Fills RestoreState returns.

// state states one level's saved fields once: its ways' tags, dirty masks
// and LRU stamps, each as a whole slice.
func (l *level) state(k *checkpoint.Codec, name string) {
	if n := k.Len(len(l.tags)); n != len(l.tags) {
		k.Fail("cache %s: %d ways, want %d", name, n, len(l.tags))
		return
	}
	checkpoint.Words(k, l.tags)
	checkpoint.Words(k, l.dirty)
	checkpoint.Words(k, l.lasts)
	for i, t := range l.tags {
		if t == invalidTag && l.dirty[i] != 0 {
			k.Fail("cache %s: empty way %d carries dirty bytes %#x", name, i, l.dirty[i])
			return
		}
	}
}

// tagState states a completion tag.
func tagState(k *checkpoint.Codec, t *core.DoneTag) {
	checkpoint.U8(k, &t.Kind)
	coreID := int64(t.Core)
	k.I64(&coreID)
	if coreID != int64(int32(coreID)) {
		k.Fail("cache: completion tag core %d does not fit the tag", coreID)
	}
	t.Core = int32(coreID)
	k.U64(&t.Serial)
}

// state states the hierarchy's saved fields once, in payload order.
// Completions travel as their tags; RestoreState rebinds them.
func (h *Hierarchy) state(k *checkpoint.Codec) {
	for i, l1 := range h.l1 {
		l1.state(k, "L1."+strconv.Itoa(i))
	}
	h.l2.state(k, "L2")

	h.mshr = checkpoint.Slice(k, h.mshr, func(pe **missEntry) {
		if *pe == nil {
			*pe = &missEntry{}
		}
		e := *pe
		k.U64(&e.id)
		k.Bool(&e.issued)
		e.waiters = checkpoint.Slice(k, e.waiters, func(wt *waiter) {
			tagState(k, &wt.done.Tag)
			checkpoint.Word(k, &wt.storeMask)
			k.Int(&wt.core)
			if wt.core < 0 || wt.core >= h.cfg.Cores {
				k.Fail("cache: waiter core %d of %d", wt.core, h.cfg.Cores)
			}
		})
		if len(e.waiters) == 0 {
			k.Fail("cache: MSHR entry %#x with no waiters", e.id)
		}
	})
	if len(h.mshr) > h.cfg.Cores*h.cfg.MSHRs {
		k.Fail("cache: %d MSHR entries exceed capacity %d", len(h.mshr), h.cfg.Cores*h.cfg.MSHRs)
	}

	// Each lane in delivery order from its head; a restore refills it from
	// slot 0, and only a lane in time order is one SaveState can write.
	for i := range h.lanes {
		l := &h.lanes[i]
		l.resize(k.Len(l.n))
		for j := 0; j < l.n && k.Err() == nil; j++ {
			e := l.ref(j)
			k.I64(&e.at)
			tagState(k, &e.done.Tag)
			if j > 0 && e.at < l.ref(j-1).at {
				k.Fail("cache: lane %d completion at %d after one at %d", i, e.at, l.ref(j-1).at)
			}
		}
	}
	h.wbs = checkpoint.Slice(k, h.wbs, func(wb *pendingWB) {
		k.U64(&wb.id)
		checkpoint.Word(k, &wb.dirty)
	})

	// The entries the backend refused, as positions in mshr. Each unissued
	// entry is listed exactly once and each listed entry is unissued: Tick
	// sends a listed entry to the backend once per listing, and nothing else
	// sends an unissued one.
	pos := make([]int, len(h.retryFills))
	for i, e := range h.retryFills {
		pos[i] = slices.Index(h.mshr, e)
	}
	pos = checkpoint.Slice(k, pos, k.Int)
	listed := make([]bool, len(h.mshr))
	for _, p := range pos {
		switch {
		case p < 0 || p >= len(h.mshr):
			k.Fail("cache: retry index %d of %d", p, len(h.mshr))
			return
		case h.mshr[p].issued:
			k.Fail("cache: retry entry %#x marked issued", h.mshr[p].id)
		case listed[p]:
			k.Fail("cache: retry entry %#x listed twice", h.mshr[p].id)
		}
		listed[p] = true
	}
	for i, e := range h.mshr {
		if !e.issued && !listed[i] {
			k.Fail("cache: unissued MSHR entry %#x is on no retry list", e.id)
		}
	}
	if k.Restores() {
		h.retryFills = make([]*missEntry, len(pos))
		for i, p := range pos {
			h.retryFills[i] = h.mshr[p]
		}
	}

	hasDBI := h.dbi != nil
	k.Bool(&hasDBI)
	if hasDBI != (h.dbi != nil) {
		k.Fail("cache: DBI presence %v, config says %v", hasDBI, h.dbi != nil)
		return
	}
	if h.dbi != nil {
		// Rows and their line ids in ascending order, so a duplicate cannot
		// replace an earlier row and the bytes restore to themselves.
		checkpoint.Map(k, h.dbi, func(key *uint64, set *map[uint64]struct{}) {
			k.U64(key)
			if *set == nil {
				*set = make(map[uint64]struct{})
			}
			checkpoint.Map(k, *set, func(id *uint64, _ *struct{}) { k.U64(id) }, "cache: DBI row %#x line id", *key)
			if len(*set) == 0 {
				k.Fail("cache: empty DBI row entry %#x", *key)
			}
		}, "cache: DBI row key")
	}
}

// SaveState appends the hierarchy's dynamic state.
func (h *Hierarchy) SaveState(w *checkpoint.Writer) { h.state(checkpoint.Saving(w)) }

// RestoreState decodes a SaveState payload into a copy of the hierarchy.
// resolve maps the CPU-side completion tags (load serials, store
// completions) held in waiters and scheduled events back to live
// callbacks. It returns a commit that installs the state and the restored
// fills, which rebind the completions this hierarchy handed the backend
// (for the controller's restore). On error the hierarchy is untouched.
// Statistics are not restored — the checkpoint contract is that saves
// happen at the warmup boundary where all statistics are freshly reset.
func (h *Hierarchy) RestoreState(r *checkpoint.Reader, resolve func(core.DoneTag) (core.Done, bool)) (func(), *Fills, error) {
	t := *h
	fresh := func(l *level) *level {
		return &level{tags: make([]uint64, len(l.tags)), dirty: make([]core.ByteMask, len(l.dirty)),
			lasts: make([]int64, len(l.lasts)), ways: l.ways, setMask: l.setMask}
	}
	t.l1 = make([]*level, len(h.l1))
	for i, l1 := range h.l1 {
		t.l1[i] = fresh(l1)
	}
	t.l2 = fresh(h.l2)
	t.mshr, t.lanes, t.wbs, t.retryFills, t.freeMiss = nil, [numLanes]lane{}, nil, nil, nil
	if h.dbi != nil {
		t.dbi = make(map[uint64]map[uint64]struct{})
	}
	t.state(checkpoint.Restoring(r))

	// Derived: each level's LRU clock, and each core's MSHR count (an entry
	// counts against its first waiter's core).
	for _, l := range t.l1 {
		l.tick = slices.Max(l.lasts)
	}
	t.l2.tick = slices.Max(t.l2.lasts)
	t.mshrPerCore = make([]int, len(h.mshrPerCore))
	for _, e := range t.mshr {
		if len(e.waiters) == 0 || r.Err() != nil {
			break
		}
		c := e.waiters[0].core
		if t.mshrPerCore[c]++; t.mshrPerCore[c] > h.cfg.MSHRs {
			r.Fail("cache: core %d holds more than %d MSHR entries", c, h.cfg.MSHRs)
		}
	}
	// Rebind: every waiter and lane event to its CPU callback, every entry's
	// fill callback to this hierarchy.
	rebind := func(d *core.Done) {
		if d.Tag.Kind != core.DoneLoad && d.Tag.Kind != core.DoneStore {
			r.Fail("cache: completion tag kind %d is not a CPU tag", d.Tag.Kind)
			return
		}
		tag, ok := d.Tag, false
		if *d, ok = resolve(tag); !ok {
			r.Fail("cache: unresolvable completion tag kind=%d core=%d serial=%d", tag.Kind, tag.Core, tag.Serial)
		}
	}
	for _, e := range t.mshr {
		e.onFill = func(at int64) { h.fill(e, at) }
		for i := range e.waiters {
			rebind(&e.waiters[i].done)
		}
	}
	for i := range t.lanes {
		for j := 0; j < t.lanes[i].n; j++ {
			rebind(&t.lanes[i].ref(j).done)
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	mshr := make([]*missEntry, len(t.mshr), h.cfg.Cores*h.cfg.MSHRs)
	copy(mshr, t.mshr)
	t.mshr = mshr
	return func() { *h = t }, &Fills{h: h, entries: t.mshr, claimed: make([]bool, len(t.mshr))}, nil
}

// Fills hands the restored in-flight misses' fill completions to the
// backend's restored reads. Each issued MSHR entry must be claimed by
// exactly one read: a second claim would complete the entry twice, and an
// unclaimed entry would never complete.
type Fills struct {
	h       *Hierarchy
	entries []*missEntry
	claimed []bool
}

// Claim returns the fill completion of lineID's issued entry and marks the
// entry claimed; it is an error if there is no such entry or a read
// already claimed it.
func (f *Fills) Claim(lineID uint64) (core.Done, error) {
	for i, e := range f.entries {
		if e.id != lineID || !e.issued {
			continue
		}
		if f.claimed[i] {
			return core.Done{}, fmt.Errorf("cache: two reads claim the fill of line %#x", lineID)
		}
		f.claimed[i] = true
		return f.h.fillDone(e), nil
	}
	return core.Done{}, fmt.Errorf("cache: no in-flight miss for line %#x", lineID)
}

// Unclaimed names the first issued entry no read claimed, or returns nil.
func (f *Fills) Unclaimed() error {
	for i, e := range f.entries {
		if e.issued && !f.claimed[i] {
			return fmt.Errorf("cache: no read carries the fill of line %#x", e.id)
		}
	}
	return nil
}
