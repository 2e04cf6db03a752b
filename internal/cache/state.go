package cache

import (
	"math"
	"slices"
	"strconv"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Checkpointing (DESIGN.md §4e). The hierarchy serializes cache contents
// (lines, LRU state), the miss machinery (MSHRs, waiters, the completion
// lanes, refused-operation retry lists), and the DBI index. Slices are
// written verbatim and each lane in delivery order from its head —
// restoring them in the stored order preserves delivery order exactly, so
// a restored run is bit-identical to the monolithic one, and the bytes do
// not depend on how a ring happened to be rotated. Map contents (the DBI)
// are written in sorted key order so identical states produce identical
// bytes.
//
// Statistics are NOT serialized: checkpoints are taken at the warmup
// boundary, immediately after ResetStats, so a freshly built hierarchy
// already matches. Completion callbacks are rebound through their
// core.DoneTag via the resolver the CPU restore provides; the fill
// callbacks this hierarchy hands the backend are rebound through the
// resolver RestoreState returns.

func saveLevel(w *checkpoint.Writer, l *level) {
	w.Count(len(l.lines))
	for i := range l.lines {
		ln := &l.lines[i]
		w.U64(ln.tag)
		w.Bool(ln.valid)
		w.U64(uint64(ln.dirty))
	}
	for _, t := range l.lasts {
		w.I64(t)
	}
	w.I64(l.tick)
}

// restoreLevel decodes one level into temporaries and returns its commit.
func restoreLevel(r *checkpoint.Reader, l *level, name string) func() {
	if n := r.Count(); n != len(l.lines) {
		r.Fail("cache %s: %d lines, want %d", name, n, len(l.lines))
		return func() {}
	}
	lines := make([]line, len(l.lines))
	for i := range lines {
		lines[i] = line{tag: r.U64(), valid: r.Bool(), dirty: core.ByteMask(r.U64())}
	}
	lasts := make([]int64, len(l.lasts))
	for i := range lasts {
		lasts[i] = r.I64()
	}
	tick := r.I64()
	return func() {
		l.lines = lines
		l.lasts = lasts
		l.tick = tick
		// tags mirror lines; rebuild rather than trust the payload.
		for i := range lines {
			if lines[i].valid {
				l.tags[i] = lines[i].tag
			} else {
				l.tags[i] = invalidTag
			}
		}
	}
}

func saveTag(w *checkpoint.Writer, t core.DoneTag) {
	w.U8(uint8(t.Kind))
	w.I64(int64(t.Core))
	w.U64(t.Serial)
}

func readTag(r *checkpoint.Reader) core.DoneTag {
	kind, coreID, serial := core.DoneKind(r.U8()), r.I64(), r.U64()
	if coreID != int64(int32(coreID)) {
		r.Fail("cache: completion tag core %d does not fit the tag", coreID)
	}
	return core.DoneTag{Kind: kind, Core: int32(coreID), Serial: serial}
}

// SaveState appends the hierarchy's dynamic state.
func (h *Hierarchy) SaveState(w *checkpoint.Writer) {
	for _, l1 := range h.l1 {
		saveLevel(w, l1)
	}
	saveLevel(w, h.l2)

	w.Count(len(h.mshr))
	for _, e := range h.mshr {
		w.U64(e.id)
		w.Bool(e.issued)
		w.Count(len(e.waiters))
		for _, wt := range e.waiters {
			saveTag(w, wt.done.Tag)
			w.U64(uint64(wt.storeMask))
			w.Int(wt.core)
		}
	}
	for _, n := range h.mshrPerCore {
		w.Int(n)
	}
	for i := range h.lanes {
		l := &h.lanes[i]
		w.Count(l.n)
		for j := 0; j < l.n; j++ {
			e := l.nth(j)
			w.I64(e.at)
			saveTag(w, e.done.Tag)
		}
	}
	w.Count(len(h.wbs))
	for _, wb := range h.wbs {
		w.U64(wb.id)
		w.U64(uint64(wb.dirty))
	}
	// Retry entries are MSHR members awaiting backend acceptance; store
	// their positions in the mshr slice.
	w.Count(len(h.retryFills))
	for _, e := range h.retryFills {
		idx := -1
		for i, m := range h.mshr {
			if m == e {
				idx = i
				break
			}
		}
		w.Int(idx)
	}
	w.Bool(h.dbi != nil)
	if h.dbi != nil {
		keys := make([]uint64, 0, len(h.dbi))
		for k := range h.dbi {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.Count(len(keys))
		for _, k := range keys {
			w.U64(k)
			set := h.dbi[k]
			ids := make([]uint64, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			w.Count(len(ids))
			for _, id := range ids {
				w.U64(id)
			}
		}
		w.Count(len(h.dbiFIFO))
		for _, k := range h.dbiFIFO {
			w.U64(k)
		}
	}
	w.I64(h.now)
}

// RestoreState decodes a SaveState payload. resolve maps the CPU-side
// completion tags (load serials, store completions) held in waiters and
// scheduled events back to live callbacks. It returns a commit that
// installs the state and a resolver mapping line ids back to the fill
// callbacks this hierarchy handed the backend (for the controller's
// restore). On error the hierarchy is untouched. Statistics are not
// restored — the checkpoint contract is that saves happen at the warmup
// boundary where all statistics are freshly reset.
func (h *Hierarchy) RestoreState(r *checkpoint.Reader, resolve func(core.DoneTag) (core.Done, bool)) (func(), func(lineID uint64) (core.Done, bool), error) {
	resolveOrFail := func(tag core.DoneTag) core.Done {
		if tag.Kind != core.DoneLoad && tag.Kind != core.DoneStore {
			r.Fail("cache: completion tag kind %d is not a CPU tag", tag.Kind)
			return core.Done{}
		}
		d, ok := resolve(tag)
		if !ok && r.Err() == nil {
			r.Fail("cache: unresolvable completion tag kind=%d core=%d serial=%d",
				tag.Kind, tag.Core, tag.Serial)
		}
		return d
	}

	commits := make([]func(), 0, len(h.l1)+1)
	for i, l1 := range h.l1 {
		commits = append(commits, restoreLevel(r, l1, "L1."+strconv.Itoa(i)))
	}
	commits = append(commits, restoreLevel(r, h.l2, "L2"))

	nMSHR := r.Count()
	if nMSHR > h.cfg.Cores*h.cfg.MSHRs {
		r.Fail("cache: %d MSHR entries exceed capacity %d", nMSHR, h.cfg.Cores*h.cfg.MSHRs)
		nMSHR = 0
	}
	entries := make([]*missEntry, nMSHR)
	for i := range entries {
		e := &missEntry{}
		e.onFill = func(at int64) { h.fill(e, at) }
		e.id = r.U64()
		e.issued = r.Bool()
		nw := r.Count()
		if nw == 0 && r.Err() == nil {
			r.Fail("cache: MSHR entry %#x with no waiters", e.id)
		}
		e.waiters = make([]waiter, nw)
		for j := range e.waiters {
			tag := readTag(r)
			mask := core.ByteMask(r.U64())
			cid := r.Int()
			if cid < 0 || cid >= h.cfg.Cores {
				r.Fail("cache: waiter core %d of %d", cid, h.cfg.Cores)
				cid = 0
			}
			if r.Err() != nil {
				continue
			}
			e.waiters[j] = waiter{done: resolveOrFail(tag), storeMask: mask, core: cid}
		}
		entries[i] = e
	}
	perCore := make([]int, len(h.mshrPerCore))
	for i := range perCore {
		perCore[i] = r.Int()
		if perCore[i] < 0 || perCore[i] > h.cfg.MSHRs {
			r.Fail("cache: core %d MSHR count %d of %d", i, perCore[i], h.cfg.MSHRs)
		}
	}
	var lanes [numLanes]lane
	for i := range lanes {
		prev := int64(math.MinInt64)
		for n := r.Count(); n > 0; n-- {
			at := r.I64()
			tag := readTag(r)
			if r.Err() == nil && at < prev {
				r.Fail("cache: lane %d completion at %d after one at %d", i, at, prev)
			}
			if r.Err() != nil {
				break
			}
			prev = at
			lanes[i].push(event{at: at, done: resolveOrFail(tag)})
		}
	}
	wbs := make([]pendingWB, r.Count())
	for i := range wbs {
		wbs[i] = pendingWB{id: r.U64(), dirty: core.ByteMask(r.U64())}
	}
	retries := make([]*missEntry, r.Count())
	for i := range retries {
		idx := r.Int()
		if idx < 0 || idx >= len(entries) {
			r.Fail("cache: retry index %d of %d", idx, len(entries))
			continue
		}
		if entries[idx].issued {
			r.Fail("cache: retry entry %#x marked issued", entries[idx].id)
		}
		retries[i] = entries[idx]
	}
	hasDBI := r.Bool()
	if r.Err() == nil && hasDBI != (h.dbi != nil) {
		r.Fail("cache: DBI presence %v, config says %v", hasDBI, h.dbi != nil)
	}
	var dbi map[uint64]map[uint64]struct{}
	var dbiFIFO []uint64
	if hasDBI && r.Err() == nil {
		// Rows and their line ids must arrive the way SaveState writes them,
		// strictly ascending (so a duplicate cannot replace an earlier row
		// and the bytes restore to themselves), and every row must be
		// reachable through the FIFO — eviction finds rows nowhere else.
		dbi = make(map[uint64]map[uint64]struct{})
		nk := r.Count()
		keys := make([]uint64, 0, nk)
		for i := 0; i < nk && r.Err() == nil; i++ {
			k := r.U64()
			if i > 0 && k <= keys[i-1] {
				r.Fail("cache: DBI row key %#x after %#x, want ascending", k, keys[i-1])
			}
			keys = append(keys, k)
			set := make(map[uint64]struct{})
			ni := r.Count()
			for j, prevID := 0, uint64(0); j < ni && r.Err() == nil; j++ {
				id := r.U64()
				if j > 0 && id <= prevID {
					r.Fail("cache: DBI row %#x line id %#x after %#x, want ascending", k, id, prevID)
				}
				prevID = id
				set[id] = struct{}{}
			}
			if len(set) == 0 && r.Err() == nil {
				r.Fail("cache: empty DBI row entry %#x", k)
			}
			dbi[k] = set
		}
		dbiFIFO = make([]uint64, r.Count())
		queued := make(map[uint64]struct{}, len(dbiFIFO))
		for i := range dbiFIFO {
			dbiFIFO[i] = r.U64()
			queued[dbiFIFO[i]] = struct{}{}
		}
		for _, k := range keys { // file order, so the error names the lowest
			if _, ok := queued[k]; !ok {
				r.Fail("cache: DBI row %#x is not in the eviction FIFO", k)
			}
		}
	}
	now := r.I64()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}

	fillResolve := func(lineID uint64) (core.Done, bool) {
		// An MSHR entry is the unique in-flight miss for its line, so the
		// line id rebinds unambiguously.
		for _, e := range entries {
			if e.id == lineID && e.issued {
				return h.fillDone(e), true
			}
		}
		return core.Done{}, false
	}

	commit := func() {
		for _, c := range commits {
			c()
		}
		h.mshr = make([]*missEntry, len(entries), h.cfg.Cores*h.cfg.MSHRs)
		copy(h.mshr, entries)
		copy(h.mshrPerCore, perCore)
		h.lanes = lanes
		h.wbs = wbs
		h.retryFills = retries
		h.freeMiss = nil
		if h.dbi != nil {
			h.dbi = dbi
			h.dbiFIFO = dbiFIFO
		}
		h.now = now
	}
	return commit, fillResolve, nil
}
