// Package cache models the two-level cache hierarchy of the paper's
// baseline system (Table 3): per-core 32KB 4-way L1 data caches and a
// shared 4MB 8-way L2, write-back and write-allocate with LRU replacement,
// extended with the paper's fine-grained dirtiness (FGD) support (Section
// 4.1.4): every line carries a byte-granularity dirty mask, dirty masks are
// OR-merged on L1-to-L2 evictions, and the mask accompanies a dirty L2
// eviction to the memory controller where it becomes the PRA mask.
//
// The hierarchy is non-blocking: misses allocate MSHRs (merging waiters for
// the same line), hit completions are delivered through two FIFO lanes (one
// per hit latency; fills are delivered by the backend), and writebacks are
// buffered until the memory controller accepts them. The optional
// Dirty-Block Index (Seshadri et al., modelled for the Figure 15 case study)
// proactively writes back all dirty L2 lines of a DRAM row when any dirty
// line of that row is evicted.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"pradram/internal/core"
	"pradram/internal/obs"
	"pradram/internal/stats"
)

// Backend is the memory side of the hierarchy (the memory controller).
// Both methods may refuse (queue full); the hierarchy retries every Tick.
type Backend interface {
	// Read requests a line fill; done.Fn is called with the cycle the data
	// arrives. The tag lets a checkpointed backend rebind the callback.
	Read(addr uint64, done core.Done) bool
	// Write enqueues a dirty-line writeback with its FGD byte mask.
	Write(addr uint64, dirty core.ByteMask) bool
}

// Config sizes the hierarchy. Latencies are in CPU cycles.
type Config struct {
	Cores  int
	L1Sets int // 128 sets x 4 ways x 64B = 32KB
	L1Ways int
	L1Lat  int64
	L2Sets int // 8192 sets x 8 ways x 64B = 4MB
	L2Ways int
	L2Lat  int64
	MSHRs  int // outstanding L2 misses per core

	// DBI enables the Dirty-Block-Index proactive writeback. RowKey maps a
	// line address to its DRAM row identity and must be set when DBI is on.
	DBI    bool
	RowKey func(addr uint64) uint64
}

// DefaultConfig returns the paper's Table 3 hierarchy for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:  n,
		L1Sets: 128, L1Ways: 4, L1Lat: 2,
		L2Sets: 8192, L2Ways: 8, L2Lat: 20,
		MSHRs: 16,
	}
}

// Validate reports the first inconsistency in the configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cache: need at least one core")
	case c.L1Sets <= 0 || c.L1Ways <= 0 || c.L2Sets <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("cache: sets/ways must be positive")
	case c.L1Sets&(c.L1Sets-1) != 0 || c.L2Sets&(c.L2Sets-1) != 0:
		return fmt.Errorf("cache: set counts must be powers of two")
	case c.L1Lat < 0:
		return fmt.Errorf("cache: negative L1Lat %d", c.L1Lat)
	case c.L2Lat < 0:
		return fmt.Errorf("cache: negative L2Lat %d", c.L2Lat)
	case c.MSHRs <= 0:
		return fmt.Errorf("cache: MSHRs must be positive")
	case c.DBI && c.RowKey == nil:
		return fmt.Errorf("cache: DBI requires a RowKey function")
	}
	return nil
}

// invalidTag marks an empty way in level.tags. It cannot collide with a
// real line id: ids are addresses shifted right by 6, so all-ones would
// need an address past 2^63.
const invalidTag = ^uint64(0)

type level struct {
	// Every way of every set (set-major) in packed parallel arrays: the
	// line id (invalidTag for an empty way), the FGD dirty byte mask (zero
	// for an empty way) and the LRU timestamp, so the associative scans
	// touch a couple of host cache lines.
	tags    []uint64
	dirty   []core.ByteMask
	lasts   []int64
	ways    int
	setMask uint64
	tick    int64 // the latest LRU timestamp handed out: the maximum of lasts
}

func newLevel(nSets, ways int) *level {
	l := &level{tags: make([]uint64, nSets*ways), dirty: make([]core.ByteMask, nSets*ways),
		lasts: make([]int64, nSets*ways), ways: ways, setMask: uint64(nSets - 1)}
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	return l
}

// index returns the slab index of id's line, or -1 when absent.
// (lineID is the line address, addr >> 6; set index uses its low bits.)
func (l *level) index(id uint64) int {
	base := int(id&l.setMask) * l.ways
	tags := l.tags[base : base+l.ways : base+l.ways]
	for i := range tags {
		if tags[i] == id {
			return base + i
		}
	}
	return -1
}

// touch returns the slab index of id's line, or -1 when absent, making a
// present line the most recently used.
func (l *level) touch(id uint64) int {
	i := l.index(id)
	if i >= 0 {
		l.tick++
		l.lasts[i] = l.tick
	}
	return i
}

// victimIdx returns the slab index of the way to replace in id's set (an
// invalid way, else LRU).
func (l *level) victimIdx(id uint64) int {
	base := int(id&l.setMask) * l.ways
	tags := l.tags[base : base+l.ways : base+l.ways]
	v := base
	for i := range tags {
		if tags[i] == invalidTag {
			return base + i
		}
		if l.lasts[base+i] < l.lasts[v] {
			v = base + i
		}
	}
	return v
}

// install places id into the cache, returning the evicted line's id
// (invalidTag when the way was free) and dirty mask.
func (l *level) install(id uint64, dirty core.ByteMask) (evicted uint64, evictedDirty core.ByteMask) {
	i := l.victimIdx(id)
	evicted, evictedDirty = l.tags[i], l.dirty[i]
	l.tick++
	l.tags[i], l.dirty[i], l.lasts[i] = id, dirty, l.tick
	return evicted, evictedDirty
}

// invalidate drops the line at slab index i (from index()).
func (l *level) invalidate(i int) {
	l.tags[i], l.dirty[i] = invalidTag, 0
}

// event is a scheduled completion callback.
type event struct {
	at   int64
	done core.Done
}

// The two completion lanes: every hit completion is scheduled at either
// now+L1Lat or now+L1Lat+L2Lat, so with the non-decreasing now the run loop
// supplies each lane is born sorted.
const (
	laneL1 = iota
	laneL2
	numLanes
)

// lane is a ring of events kept sorted by at, equal cycles in arrival
// order. push inserts from the tail, walking back only past predecessors
// that are due later — never, for a monotone now, so push and pop are
// O(1) — and stays correct (a stable insertion) for any other caller.
type lane struct {
	buf  []event // power-of-two length, or nil before the first push
	head int
	n    int
}

func (l *lane) push(e event) {
	if l.n == len(l.buf) {
		grown := make([]event, max(16, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	mask := len(l.buf) - 1
	i := (l.head + l.n) & mask
	for k := l.n; k > 0; k-- {
		p := (i - 1) & mask
		if l.buf[p].at <= e.at {
			break
		}
		l.buf[i] = l.buf[p]
		i = p
	}
	l.buf[i] = e
	l.n++
}

// pop removes the earliest event; the lane must be non-empty. The vacated
// slot keeps its stale callback until overwritten: completions are the
// cores' long-lived closures, so there is nothing to release to the GC.
func (l *lane) pop() event {
	e := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// ref returns the i-th earliest event in place.
func (l *lane) ref(i int) *event { return &l.buf[(l.head+i)&(len(l.buf)-1)] }

// resize readies the lane to hold n events for a restore to decode into:
// a lane holding a different count (the empty lane of a restore) becomes a
// ring of n zero events from slot 0, and one already holding n (a save) is
// left as it is.
func (l *lane) resize(n int) {
	if n != l.n {
		*l = lane{buf: make([]event, max(16, 1<<bits.Len(uint(n)))), n: n}
	}
}

type waiter struct {
	done      core.Done
	storeMask core.ByteMask // nonzero for stores: applied at fill
	core      int
}

type missEntry struct {
	id      uint64
	waiters []waiter
	issued  bool
	next    *missEntry // freelist link while recycled
	// onFill is the backend completion callback bound to this entry for
	// its pooled lifetime: entries recycle through the hierarchy's
	// freelist after fill, so the closure (and the waiters slice backing
	// array) are allocated once per in-flight-miss high-water mark.
	onFill func(at int64)
}

type pendingWB struct {
	id    uint64
	dirty core.ByteMask
}

// Stats aggregates hierarchy-level counters for the experiments.
type Stats struct {
	Loads, Stores    int64
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	Writebacks       int64
	DBIProactive     int64
	// DirtyWords histograms dirty words per line at L2 dirty eviction
	// (Figure 3). DirtyChips is the SDS chip-mask equivalent (Section 3).
	DirtyWords *stats.Hist
	DirtyChips *stats.Hist
	DirtyBytes int64 // total dirty bytes written back
}

// Hierarchy is the full two-level cache system.
type Hierarchy struct {
	cfg Config
	mem Backend

	l1 []*level
	l2 *level

	// mshr is the set of outstanding L2 misses. It is a packed slice
	// rather than a map: occupancy is bounded by Cores*MSHRs, so a linear
	// scan beats hashing, and since nothing iterates it the swap-remove
	// ordering cannot influence simulation order.
	mshr        []*missEntry
	mshrPerCore []int
	lanes       [numLanes]lane
	wbs         []pendingWB
	retryFills  []*missEntry
	freeMiss    *missEntry // missEntry freelist

	dbi map[uint64]map[uint64]struct{} // rowKey -> dirty L2 line ids

	// Events, when non-nil, receives structured state events (DBI sweeps)
	// stamped with the CPU cycle of the last Tick/access. Emission is
	// guarded by the nil-safe Enabled check, so the disabled cost is one
	// pointer compare.
	Events *obs.EventLog
	now    int64

	Stats Stats
}

// New builds a hierarchy over the given memory backend.
func New(cfg Config, mem Backend) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, fmt.Errorf("cache: nil backend")
	}
	h := &Hierarchy{
		cfg:         cfg,
		mem:         mem,
		l2:          newLevel(cfg.L2Sets, cfg.L2Ways),
		mshr:        make([]*missEntry, 0, cfg.Cores*cfg.MSHRs),
		mshrPerCore: make([]int, cfg.Cores),
	}
	h.l1 = make([]*level, cfg.Cores)
	for i := range h.l1 {
		h.l1[i] = newLevel(cfg.L1Sets, cfg.L1Ways)
	}
	if cfg.DBI {
		h.dbi = make(map[uint64]map[uint64]struct{})
	}
	h.Stats.DirtyWords = stats.NewHist(core.WordsPerLine)
	h.Stats.DirtyChips = stats.NewHist(core.BytesPerWord)
	return h, nil
}

func lineID(addr uint64) uint64 { return addr >> 6 }

// Load issues a load. Returns false when the core's MSHRs are exhausted
// (the core must retry next cycle). done is called with the completion
// cycle exactly once.
func (h *Hierarchy) Load(coreID int, addr uint64, now int64, done core.Done) bool {
	return h.access(coreID, addr, now, 0, done)
}

// Store issues a store of the given dirty byte mask (write-allocate).
// Returns false when the core's MSHRs are exhausted.
func (h *Hierarchy) Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool {
	return h.access(coreID, addr, now, storeDirty(addr, mask), done)
}

// storeDirty is the dirty mask a store writes: its own mask, or the one
// byte at addr when it carries none.
func storeDirty(addr uint64, mask core.ByteMask) core.ByteMask {
	if mask == 0 {
		return core.StoreBytes(int(addr&63), 1)
	}
	return mask
}

func (h *Hierarchy) access(coreID int, addr uint64, now int64, storeMask core.ByteMask, done core.Done) bool {
	id := lineID(addr)
	isStore := storeMask != 0
	if isStore {
		h.Stats.Stores++
	} else {
		h.Stats.Loads++
	}

	// L1.
	l1 := h.l1[coreID]
	if i := l1.touch(id); i >= 0 {
		h.Stats.L1Hits++
		h.hitL1(l1, i, id, storeMask)
		h.lanes[laneL1].push(event{at: now + h.cfg.L1Lat, done: done})
		return true
	}
	h.Stats.L1Misses++

	// L2.
	if h.l2.touch(id) >= 0 {
		h.Stats.L2Hits++
		h.fillL1(coreID, id, storeMask)
		h.lanes[laneL2].push(event{at: now + h.cfg.L1Lat + h.cfg.L2Lat, done: done})
		return true
	}
	h.Stats.L2Misses++

	// MSHR merge.
	for _, e := range h.mshr {
		if e.id == id {
			e.waiters = append(e.waiters, waiter{done: done, storeMask: storeMask, core: coreID})
			return true
		}
	}
	if h.mshrPerCore[coreID] >= h.cfg.MSHRs {
		// Un-count: the access will be retried by the core.
		if isStore {
			h.Stats.Stores--
		} else {
			h.Stats.Loads--
		}
		h.Stats.L1Misses--
		h.Stats.L2Misses--
		return false
	}
	e := h.allocMiss()
	e.id = id
	e.waiters = append(e.waiters, waiter{done: done, storeMask: storeMask, core: coreID})
	h.mshr = append(h.mshr, e)
	h.mshrPerCore[coreID]++
	h.issueFill(e)
	return true
}

func (h *Hierarchy) allocMiss() *missEntry {
	e := h.freeMiss
	if e == nil {
		e = &missEntry{}
		e.onFill = func(at int64) { h.fill(e, at) }
	} else {
		h.freeMiss = e.next
		e.next = nil
	}
	return e
}

// fillDone builds the tagged completion the backend holds for e's fill.
// The line id is the checkpoint identity: an MSHR entry is the unique
// in-flight miss for its line, so (DoneFill, id) rebinds unambiguously.
func (h *Hierarchy) fillDone(e *missEntry) core.Done {
	return core.Done{Fn: e.onFill, Tag: core.DoneTag{Kind: core.DoneFill, Serial: e.id}}
}

func (h *Hierarchy) issueFill(e *missEntry) {
	e.issued = h.mem.Read(e.id<<6, h.fillDone(e))
	if !e.issued {
		h.retryFills = append(h.retryFills, e)
	}
}

// fill completes an L2 miss: take each waiter's step (the first installs the
// line in L2, a core's first fills it into its L1, later ones hit), wake all.
func (h *Hierarchy) fill(e *missEntry, at int64) {
	for i, m := range h.mshr {
		if m == e {
			last := len(h.mshr) - 1
			h.mshr[i] = h.mshr[last]
			h.mshr[last] = nil
			h.mshr = h.mshr[:last]
			break
		}
	}
	h.mshrPerCore[e.waiters[0].core]--

	for _, w := range e.waiters {
		h.step(w.core, e.id, w.storeMask)
	}
	for _, w := range e.waiters {
		w.done.Fn(at)
	}
	// Recycle: the backend calls onFill exactly once, so the entry is dead
	// here. Clearing waiter slots drops callback references for the GC;
	// the backing array is kept.
	for i := range e.waiters {
		e.waiters[i] = waiter{}
	}
	e.waiters = e.waiters[:0]
	e.issued = false
	e.next = h.freeMiss
	h.freeMiss = e
}

// step makes an access's state transition with its data at hand: an L1 hit
// takes the access's store mask; otherwise the L2 line is touched (installed
// when absent) and filled into the L1 with the mask.
func (h *Hierarchy) step(coreID int, id uint64, storeMask core.ByteMask) {
	l1 := h.l1[coreID]
	if i := l1.touch(id); i >= 0 {
		h.hitL1(l1, i, id, storeMask)
		return
	}
	if h.l2.touch(id) < 0 {
		h.installL2(id, 0)
	}
	h.fillL1(coreID, id, storeMask)
}

// hitL1 applies an access's store mask to the L1 line id at slab index i.
func (h *Hierarchy) hitL1(l1 *level, i int, id uint64, storeMask core.ByteMask) {
	l1.dirty[i] |= storeMask
	if storeMask != 0 {
		h.dbiMark(id)
	}
}

// fillL1 installs id into coreID's L1 with the store mask applied, merging
// any dirty victim's mask down into L2.
func (h *Hierarchy) fillL1(coreID int, id uint64, storeMask core.ByteMask) {
	ev, dirty := h.l1[coreID].install(id, storeMask)
	if storeMask != 0 {
		// The DBI tracks dirtiness anywhere in the hierarchy, so a store
		// that dirties an L1 line indexes immediately.
		h.dbiMark(id)
	}
	if dirty == 0 { // an empty way carries no dirty bytes
		return
	}
	if i := h.l2.index(ev); i >= 0 {
		wasClean := h.l2.dirty[i] == 0
		h.l2.dirty[i] |= dirty
		if wasClean {
			h.dbiMark(ev)
		}
		return
	}
	// Inclusion violation shouldn't happen (L2 evictions invalidate L1
	// copies), but write the data back rather than lose it.
	h.queueWB(ev, dirty)
}

// installL2 places a line in the L2, handling the eviction cascade.
func (h *Hierarchy) installL2(id uint64, dirty core.ByteMask) {
	ev, mask := h.l2.install(id, dirty)
	if dirty != 0 {
		h.dbiMark(id)
	}
	if ev == invalidTag {
		return
	}
	// Enforce inclusion: pull dirty bits from (and invalidate) L1 copies.
	for _, l1 := range h.l1 {
		if i := l1.index(ev); i >= 0 {
			mask |= l1.dirty[i]
			l1.invalidate(i)
		}
	}
	h.dbiUnmark(ev)
	if mask == 0 {
		return
	}
	h.recordEviction(mask)
	h.queueWB(ev, mask)
	h.dbiSweep(ev)
}

// recordEviction logs the Figure-3 / Section-3 dirtiness of a line headed
// to DRAM.
func (h *Hierarchy) recordEviction(mask core.ByteMask) {
	h.Stats.Writebacks++
	h.Stats.DirtyWords.Add(mask.WordMask().Granularity())
	h.Stats.DirtyChips.Add(mask.ChipMask().Granularity())
	h.Stats.DirtyBytes += int64(mask.DirtyBytes())
}

func (h *Hierarchy) queueWB(id uint64, dirty core.ByteMask) {
	if h.mem.Write(id<<6, dirty) {
		return
	}
	h.wbs = append(h.wbs, pendingWB{id: id, dirty: dirty})
}

// --- DBI ---

func (h *Hierarchy) rowKey(id uint64) uint64 { return h.cfg.RowKey(id << 6) }

func (h *Hierarchy) dbiMark(id uint64) {
	if h.dbi == nil {
		return
	}
	k := h.rowKey(id)
	set, ok := h.dbi[k]
	if !ok {
		set = make(map[uint64]struct{})
		h.dbi[k] = set
	}
	set[id] = struct{}{}
}

func (h *Hierarchy) dbiUnmark(id uint64) {
	if h.dbi == nil {
		return
	}
	k := h.rowKey(id)
	if set, ok := h.dbi[k]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(h.dbi, k)
		}
	}
}

// dbiSweep proactively writes back (and cleans in place) every dirty L2
// line that shares evictedID's DRAM row.
func (h *Hierarchy) dbiSweep(evictedID uint64) {
	if h.dbi == nil {
		return
	}
	k := h.rowKey(evictedID)
	set, ok := h.dbi[k]
	if !ok {
		return
	}
	// Sweep in ascending line order: map iteration order is randomized, and
	// the writeback sequence reaching the controller must be deterministic
	// for runs to be reproducible bit-for-bit.
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	swept := 0
	for _, id := range ids {
		i := h.l2.index(id)
		if i < 0 {
			continue
		}
		// Dirtiness may live in L2, in an L1 copy, or both; merge all of
		// it so the writeback carries every dirty byte.
		mask := h.l2.dirty[i]
		for _, l1 := range h.l1 {
			if j := l1.index(id); j >= 0 {
				mask |= l1.dirty[j]
				l1.dirty[j] = 0
			}
		}
		if mask == 0 {
			continue
		}
		h.l2.dirty[i] = 0
		h.Stats.DBIProactive++
		swept++
		h.recordEviction(mask)
		h.queueWB(id, mask)
	}
	delete(h.dbi, k)
	if swept > 0 && h.Events.Enabled(obs.LevelState) {
		h.Events.Emit(obs.Event{Cycle: h.now, Level: obs.LevelState, Scope: "cache",
			Kind: "dbi-sweep", Detail: fmt.Sprintf("row key %#x: %d proactive writebacks", k, swept)})
	}
}

// --- event processing ---

// Tick delivers due completions and retries refused backend operations.
// Call once per CPU cycle.
func (h *Hierarchy) Tick(now int64) {
	h.now = now
	if h.queued() > 0 {
		for i := range h.lanes {
			l := &h.lanes[i]
			for l.n > 0 && l.buf[l.head].at <= now {
				e := l.pop()
				e.done.Fn(e.at)
			}
		}
	}
	if len(h.retryFills) > 0 {
		// issueFill re-lists refusals in place, never past the entry it retries.
		retry := h.retryFills
		h.retryFills = retry[:0]
		for _, e := range retry {
			h.issueFill(e)
		}
	}
	if len(h.wbs) > 0 {
		// Drain in FIFO order, stopping at the first refusal: when the
		// controller's write queue is full, everything behind the head
		// would be refused too, and rescanning a long backlog every tick
		// turns write bursts (e.g. DBI sweeps) quadratic.
		i := 0
		for ; i < len(h.wbs); i++ {
			if !h.mem.Write(h.wbs[i].id<<6, h.wbs[i].dirty) {
				break
			}
		}
		if i > 0 {
			h.wbs = append(h.wbs[:0], h.wbs[i:]...)
		}
	}
}

// ResetStats zeroes the hierarchy counters and histograms; cache contents
// are untouched. Used to exclude warmup from measurement.
func (h *Hierarchy) ResetStats() {
	h.Stats = Stats{
		DirtyWords: stats.NewHist(core.WordsPerLine),
		DirtyChips: stats.NewHist(core.BytesPerWord),
	}
}

// NextEvent reports the earliest CPU cycle at which the hierarchy's state
// can change without new input: the earlier head of the completion lanes, or
// the very next cycle while refused backend operations (fill retries,
// buffered writebacks) are pending — those retry every Tick, and each
// attempt bumps the controller's reject counters, so skipping them would
// be observable. In-flight misses whose fill was accepted need no entry
// here: their timing is owned by the controller, whose own NextEvent
// covers it. With nothing in flight it reports FarFuture.
func (h *Hierarchy) NextEvent(now int64) int64 {
	if len(h.retryFills) > 0 || len(h.wbs) > 0 {
		return now + 1
	}
	next := int64(core.FarFuture)
	if h.queued() > 0 {
		for i := range h.lanes {
			if l := &h.lanes[i]; l.n > 0 {
				next = min(next, max(l.buf[l.head].at, now+1))
			}
		}
	}
	return next
}

// queued returns the number of scheduled completions; the empty case is
// the common one on memory-bound runs and is kept to one test.
func (h *Hierarchy) queued() int { return h.lanes[laneL1].n + h.lanes[laneL2].n }

// Functional is a functional warm of the hierarchy: each access makes the
// detailed path's state transitions — LRU order, L2 and L1 fills, the
// eviction cascade, FGD masks and the DBI — at once, with no MSHR entry,
// completion event or backend read, and no time passes. While open it is the
// hierarchy's backend, sinking the write-backs that evictions make.
type Functional struct {
	h   *Hierarchy
	mem Backend
}

// Functional opens a functional warm on a hierarchy with nothing in flight.
func (h *Hierarchy) Functional() *Functional {
	f := &Functional{h: h, mem: h.mem}
	h.mem = f
	return f
}

// Read refuses: the warm issues no fills, so a fill retried while it is open
// stays in flight for Close to report.
func (f *Functional) Read(uint64, core.Done) bool { return false }

// Write accepts the write-back.
func (f *Functional) Write(uint64, core.ByteMask) bool { return true }

// Access performs a load, or a store of mask, and completes it at once.
func (f *Functional) Access(coreID int, addr uint64, store bool, mask core.ByteMask) {
	var storeMask core.ByteMask
	if store {
		storeMask = storeDirty(addr, mask)
	}
	f.h.step(coreID, lineID(addr), storeMask)
}

// Close hands the backend back. It fails if anything is in flight, which the
// warm itself never leaves.
func (f *Functional) Close() error {
	h := f.h
	h.mem = f.mem
	if len(h.mshr)+h.queued()+len(h.retryFills)+len(h.wbs) > 0 {
		return fmt.Errorf("cache: functional warm left %d MSHR entries, %d completions, %d fill retries and %d write-backs",
			len(h.mshr), h.queued(), len(h.retryFills), len(h.wbs))
	}
	return nil
}
