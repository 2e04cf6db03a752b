package memctrl

import (
	"fmt"
	"math/bits"
	"sort"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/obs"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// Config assembles a full memory system: scheme, policy, mapping, and the
// per-channel organization.
type Config struct {
	// Knobs are the settings a run chooses (scheme, policy, ECC, ablations,
	// power-down and refresh management, mitigation, latency attribution);
	// the rest of Config is the Table 3 organization around them.
	Knobs
	Mapping Mapping

	Channels int
	Geom     dram.Geometry
	Timing   dram.Timing

	ReadQ      int // read queue entries per channel
	WriteQ     int // write queue entries per channel
	HighWM     int // write-drain start watermark
	LowWM      int // write-drain stop watermark
	MaxRowHits int // open-row access cap (fairness, Section 5.1.2)

	// CPUPerMem is the CPU-to-memory clock ratio (4 for 3.2GHz over
	// DDR3-1600's 800MHz command clock).
	CPUPerMem int64
}

// DefaultConfig returns the paper's Table 3 memory system.
func DefaultConfig() Config {
	return Config{
		Knobs:    Knobs{Scheme: Baseline, Policy: RelaxedClose},
		Mapping:  RowInterleaved,
		Channels: 2,
		Geom:     dram.DefaultGeometry(),
		Timing:   dram.DefaultTiming(),
		ReadQ:    64, WriteQ: 64, HighWM: 48, LowWM: 16,
		MaxRowHits: 4,
		CPUPerMem:  4,
	}
}

// Validate reports the first configuration inconsistency.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.Channels&(c.Channels-1) != 0:
		return fmt.Errorf("memctrl: channels must be a positive power of two, got %d", c.Channels)
	case c.ReadQ <= 0 || c.WriteQ <= 0:
		return fmt.Errorf("memctrl: queue sizes must be positive")
	case c.HighWM <= c.LowWM || c.HighWM > c.WriteQ:
		return fmt.Errorf("memctrl: watermarks must satisfy low < high <= writeQ")
	case c.MaxRowHits <= 0:
		return fmt.Errorf("memctrl: MaxRowHits must be positive")
	case c.CPUPerMem <= 0:
		return fmt.Errorf("memctrl: CPUPerMem must be positive")
	case c.Geom.Ranks*c.Geom.Banks > 64:
		return fmt.Errorf("memctrl: at most 64 banks per channel supported (have %d)", c.Geom.Ranks*c.Geom.Banks)
	}
	if err := c.Knobs.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	return c.Geom.Validate()
}

// Stats aggregates controller-level counters (per channel, summed by the
// Controller accessor).
type Stats struct {
	ReadsServed, WritesServed   int64
	RowHitRead, RowHitWrite     int64
	FalseHitRead, FalseHitWrite int64
	Forwarded                   int64
	ReadRejects, WriteRejects   int64
	ReadLatencySum              int64 // memory cycles, arrival to data
	WriteLatencySum             int64 // memory cycles, arrival to end of data phase
	ActsForReads, ActsForWrites int64
	// ReadLatBreak/WriteLatBreak decompose the latency sums per component
	// and ReadLatHist/WriteLatHist are the log2 latency histograms behind
	// the reported percentiles. All four are populated only under
	// Config.LatBreak; the conservation invariant ReadLatBreak.Sum() ==
	// ReadLatencySum (and the write-side twin) holds whenever LatBreak was
	// on for the whole measured interval (latency.go).
	ReadLatBreak  LatBreakdown
	WriteLatBreak LatBreakdown
	ReadLatHist   stats.LogHist
	WriteLatHist  stats.LogHist
	// Alerts counts mitigation alerts (threshold crossings) and
	// AlertStallCycles the memory cycles the command stream spent in
	// alert back-off (MitAlertCycles per alert, by construction).
	Alerts           int64
	AlertStallCycles int64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.ReadsServed += o.ReadsServed
	s.WritesServed += o.WritesServed
	s.RowHitRead += o.RowHitRead
	s.RowHitWrite += o.RowHitWrite
	s.FalseHitRead += o.FalseHitRead
	s.FalseHitWrite += o.FalseHitWrite
	s.Forwarded += o.Forwarded
	s.ReadRejects += o.ReadRejects
	s.WriteRejects += o.WriteRejects
	s.ReadLatencySum += o.ReadLatencySum
	s.WriteLatencySum += o.WriteLatencySum
	s.ActsForReads += o.ActsForReads
	s.ActsForWrites += o.ActsForWrites
	s.Alerts += o.Alerts
	s.AlertStallCycles += o.AlertStallCycles
	s.ReadLatBreak.Accum(&o.ReadLatBreak)
	s.WriteLatBreak.Accum(&o.WriteLatBreak)
	s.ReadLatHist.Merge(&o.ReadLatHist)
	s.WriteLatHist.Merge(&o.WriteLatHist)
}

type request struct {
	kind      core.AccessKind
	loc       Loc
	seq       uint64        // arrival stamp within the channel (bankQ order)
	byteMask  core.ByteMask // writes: FGD dirty bytes
	wordMask  core.Mask     // cached projection of byteMask (FullMask for reads)
	arrive    int64         // memory cycle
	done      core.Done     // reads: completion, invoked with the CPU cycle
	activated bool          // an ACT was issued on this request's behalf
	falseHit  bool
	// mark is the attribution frontier (latency.go): all waiting before it
	// has been blamed, so each command sweep covers [mark, issue). It
	// advances whether or not LatBreak is on — the assignment is free, and
	// keeping it live means checkpoints can always carry it, making
	// LatBreak safely excludable from the warmup fingerprint. brk is the
	// blame accumulated so far (LatBreak only).
	mark     int64
	brk      LatBreakdown
	nextFree *request // freelist link while recycled
}

// need returns the PRA word mask this request requires open.
func (r *request) need() core.Mask { return r.wordMask }

type chanCtl struct {
	cfg *Config
	ch  *dram.Channel
	acc *power.Accumulator
	am  *AddressMapper
	idx int // channel index

	// The read and write queues, indexed by bank (DESIGN.md "Scheduler
	// index"): banks[rank*Banks+bank] holds the bank's queued requests per
	// kind in arrival order, n counts the queued requests per kind (the
	// queue lengths the capacity, watermark and drain rules speak of),
	// rankCount per rank. nonEmpty[k] is the set of banks with a queued
	// request of kind k (geometry is validated <= 64 banks).
	banks     []bankQ
	seq       uint64 // last arrival stamp handed out
	n         [2]int
	nonEmpty  [2]uint64
	rankCount []int

	// The cached scheduling decisions (settle): which command each bank
	// wants, as opposed to when it is legal. stale is the set of banks whose
	// lists, open row or hit count changed since their decision was taken;
	// the candidate sets below describe the other banks and are what a
	// scheduling pass iterates. colCand[k]: a covered open-row request of
	// kind k under the hit cap (bankQ.colPos). closeCand: open with no such
	// request of either kind — the row has no beneficiary. fhCand[k]: a
	// kind-k request targets the partially open row and markFalseHits has
	// not been through all of them yet. (The banks whose kind-k head needs
	// an ACT or a PRE are the non-empty ones in no colCand: prepCand.)
	stale     uint64
	colCand   [2]uint64
	closeCand uint64
	fhCand    [2]uint64

	// terms holds each rank's share of command readiness for the current
	// pass only (termsOK is cleared at the top of every pass: no readiness
	// time survives one — DESIGN "Scheduler index" rule 1).
	terms   []rankTerms
	termsOK uint64

	drain      bool
	refPending []bool
	forwards   []*request // reads served from the write queue

	// lastWork is the last scheduling-pass cycle at which each rank had
	// queued work, the idle clock the timeout-based power-down policies
	// count from. It is updated only inside scheduling passes (after the
	// nextWake early-return), so skip-mode and per-cycle runs observe the
	// identical sequence of values.
	lastWork []int64

	// nextWake is the earliest memory cycle at which scheduling could
	// possibly issue a command; between now and then ticks only accrue
	// background energy. It is re-armed whenever a scheduling pass issues
	// nothing and disarmed (0) on every enqueue or issued command.
	nextWake int64
	wakeMin  int64 // candidate collected during the current pass

	// Alert/RFM mitigation FSM (mitigation.go): while rfmPending, the
	// command stream is stalled until alertUntil, then an RFM issues to
	// bank (rfmRank, rfmBank). Checkpointed (state.go).
	rfmPending       bool
	rfmRank, rfmBank int
	alertUntil       int64

	// ev/scope are the structured event hook (nil/"" when tracing is off);
	// see AttachObs. Emission sites guard with ev.Enabled, which is
	// nil-safe, so the disabled cost is one pointer check.
	ev    *obs.EventLog
	scope string

	// freeReq recycles request structs: a request dies when it is serviced
	// (leaves its queue or the forwards list and its callback returned),
	// so the pool's high-water mark is the queue depth.
	freeReq *request

	// Latency attribution (latency.go, LatBreak only): per-bank read
	// latency histograms indexed rank*Banks+bank, and the sampled-span
	// ring. Measurement-scoped like Stats — cleared by ResetStats, never
	// checkpointed (checkpoints are taken right after ResetStats, when all
	// of this is empty in monolithic and restored runs alike).
	latHistBank []stats.LogHist
	spans       []LatSpan
	spanHead    int
	spanSeq     int64

	stats Stats
}

// allocReq returns a zeroed request (fresh allocations are zero by
// construction, recycled ones are zeroed by releaseReq), so enqueue paths
// only assign the fields they use.
func (cc *chanCtl) allocReq() *request {
	r := cc.freeReq
	if r == nil {
		return &request{}
	}
	cc.freeReq = r.nextFree
	r.nextFree = nil
	return r
}

func (cc *chanCtl) releaseReq(r *request) {
	*r = request{nextFree: cc.freeReq}
	cc.freeReq = r
}

// noteReady records a future readiness time observed during a scheduling
// pass, to bound how long the channel may sleep.
func (cc *chanCtl) noteReady(at int64) {
	if at < cc.wakeMin {
		cc.wakeMin = at
	}
}

// bankQ is one bank's share of the channel's queues plus the summary the
// scheduler reads instead of walking them.
type bankQ struct {
	rank, bank int
	// q holds the queued requests per kind in arrival order (strictly
	// increasing seq): FR-FCFS is "oldest first" within a bank, and the
	// oldest candidate across banks is the one with the smallest seq.
	q [2][]*request
	// same counts, per kind, the queued requests that target the bank's
	// open row (zero while the bank is closed). Maintained at exactly the
	// points where a list or the open row changes: push, remove, a
	// successful ACT (recount), every precharge including an
	// auto-precharging column (closeRow), and RestoreState (re-push). A
	// write merge changes masks, never rows, so it leaves same alone.
	same [2]int
	hits int // column accesses since the row opened (the MaxRowHits cap)
	// The bank's cached decision, valid while the bank is not stale: colPos[k]
	// is the position in q[k] of the column candidate (bank in colCand[k]),
	// act[k] the activation mask for q[k][0] (bank closed, q[k] non-empty).
	colPos [2]int
	act    [2]core.Mask
}

// rankTerms is one rank's share of command readiness at the current pass
// cycle, with the weighted-tFAW term filled in per activation granularity
// on first use (fawOK says which).
type rankTerms struct {
	dram.RankTerms
	faw   [core.WordsPerLine + 1]int64
	fawOK uint16
}

// covered returns the position in q[k] of the oldest request other than
// skip that targets row and that the open mask covers (a row-buffer hit),
// or -1.
func (b *bankQ) covered(k core.AccessKind, row int, mask core.Mask, skip *request) int {
	for i, req := range b.q[k] {
		if req != skip && req.loc.Row == row &&
			core.ClassifyAccess(true, true, mask, k, req.need()) == core.Hit {
			return i
		}
	}
	return -1
}

func (cc *chanCtl) bankOf(l Loc) int { return l.Rank*cc.cfg.Geom.Banks + l.Bank }

// push appends req to its bank's list, stamping its arrival order.
func (cc *chanCtl) push(req *request) {
	cc.seq++
	req.seq = cc.seq
	k, bi := req.kind, cc.bankOf(req.loc)
	b := &cc.banks[bi]
	b.q[k] = append(b.q[k], req)
	cc.n[k]++
	cc.rankCount[req.loc.Rank]++
	cc.nonEmpty[k] |= 1 << uint(bi)
	cc.stale |= 1 << uint(bi)
	if row, _, open := cc.ch.OpenRow(req.loc.Rank, req.loc.Bank); open && row == req.loc.Row {
		b.same[k]++
	}
}

// remove takes the request at position i out of its bank's list. Only a
// column command removes a request, so it targeted the open row: if the
// column auto-precharged the row is closed now, otherwise the row has one
// more access against the cap and one request fewer waiting for it.
func (cc *chanCtl) remove(req *request, i int, autoPre bool) {
	k, bi := req.kind, cc.bankOf(req.loc)
	b := &cc.banks[bi]
	q := b.q[k]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	b.q[k] = q[:len(q)-1]
	cc.n[k]--
	cc.rankCount[req.loc.Rank]--
	cc.stale |= 1 << uint(bi)
	if len(b.q[k]) == 0 {
		cc.nonEmpty[k] &^= 1 << uint(bi)
	}
	if autoPre {
		cc.closeRow(bi)
		return
	}
	b.hits++
	b.same[k]--
}

// recount rebuilds bank bi's open-row summary after an ACT opened row.
func (cc *chanCtl) recount(bi, row int) {
	b := &cc.banks[bi]
	cc.stale |= 1 << uint(bi)
	for k := range b.q {
		n := 0
		for _, req := range b.q[k] {
			if req.loc.Row == row {
				n++
			}
		}
		b.same[k] = n
	}
}

// closeRow resets bank bi's hit count and open-row summary: its row just
// closed.
func (cc *chanCtl) closeRow(bi int) {
	cc.stale |= 1 << uint(bi)
	cc.banks[bi].hits = 0
	cc.banks[bi].same = [2]int{}
}

// precharge closes bank (r, b) if a PRE is legal at mem and reports
// whether it issued; otherwise it notes when the PRE becomes legal.
func (cc *chanCtl) precharge(mem int64, r, b int) bool {
	if at := cc.ch.PreReadyAt(mem, r, b); at > mem {
		cc.noteReady(at)
		return false
	}
	if cc.ch.Precharge(mem, r, b) != nil {
		return false
	}
	cc.closeRow(cc.bankOf(Loc{Rank: r, Bank: b}))
	return true
}

// queued returns the queued requests of kind k in arrival order — the
// flat queue the bank lists partition.
func (cc *chanCtl) queued(k core.AccessKind) []*request {
	out := make([]*request, 0, cc.n[k])
	for i := range cc.banks {
		out = append(out, cc.banks[i].q[k]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Controller is the full multi-channel memory controller. It implements
// the cache.Backend contract in the CPU clock domain and steps the DRAM
// channels in the memory clock domain.
type Controller struct {
	cfg   Config
	am    *AddressMapper
	chans []*chanCtl

	lastMem int64
	// cpm caches cfg.CPUPerMem and nextMemAt the CPU cycle of the next
	// DRAM tick, replacing the per-Tick modulo/division pair on the clock
	// ratio with a stride counter (one compare, one add per DRAM tick).
	cpm       int64
	nextMemAt int64

	// NextEvent cache, refreshed after every DRAM tick and invalidated
	// (active=true) by enqueues: active means some channel must be scanned
	// at the next DRAM tick; otherwise minWake is the earliest channel
	// wake-up in memory cycles. NextEvent is on the run loop's
	// per-executed-cycle path, so it must not walk the channels itself.
	active  bool
	minWake int64
}

// New builds a controller; each channel gets its own power accumulator.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	am, err := NewAddressMapper(cfg.Mapping, cfg.Channels, cfg.Geom)
	if err != nil {
		return nil, err
	}
	if cfg.NoMaskCycle {
		cfg.Timing.PRAMaskCycles = 0
	}
	if cfg.Scheme == SDS {
		// SDS delivers its chip mask through the DM pins alongside the
		// write (no extra address-bus cycle) and does not relax tRRD/tFAW
		// (the Skinflint design predates the weighted-window idea).
		cfg.Timing.PRAMaskCycles = 0
		cfg.NoTimingRelax = true
	}
	c := &Controller{cfg: cfg, am: am, lastMem: -1, cpm: cfg.CPUPerMem, active: true}
	for i := 0; i < cfg.Channels; i++ {
		acc := power.NewAccumulator()
		ch, err := dram.NewChannel(cfg.Timing, cfg.Geom, acc)
		if err != nil {
			return nil, err
		}
		ch.NoWeightedFAW = cfg.NoTimingRelax
		ch.SlowExitPD = cfg.PDSlowExit
		if cfg.MitThreshold > 0 {
			ch.TrackRows(cfg.mitTableCap())
		}
		switch cfg.RefreshMode {
		case RefreshPerBank:
			ch.RefMode = dram.RefPerBank
		case RefreshElastic:
			ch.MaxPostpone = 8
		}
		acc.LinearActScale = cfg.Scheme == SDS
		if cfg.ECC {
			acc.ECCChips = 1
		}
		cc := &chanCtl{cfg: &c.cfg, ch: ch, acc: acc, am: am, idx: i}
		cc.banks = make([]bankQ, cfg.Geom.Ranks*cfg.Geom.Banks)
		for bi := range cc.banks {
			cc.banks[bi].rank, cc.banks[bi].bank = bi/cfg.Geom.Banks, bi%cfg.Geom.Banks
		}
		cc.refPending = make([]bool, cfg.Geom.Ranks)
		cc.rankCount = make([]int, cfg.Geom.Ranks)
		cc.terms = make([]rankTerms, cfg.Geom.Ranks)
		cc.lastWork = make([]int64, cfg.Geom.Ranks)
		if cfg.LatBreak {
			cc.latHistBank = make([]stats.LogHist, cfg.Geom.Ranks*cfg.Geom.Banks)
		}
		c.chans = append(c.chans, cc)
	}
	return c, nil
}

// Mapper exposes the address mapper (for experiments and the DBI RowKey).
func (c *Controller) Mapper() *AddressMapper { return c.am }

// RowKey identifies the DRAM row of an address (cache.Config.RowKey).
func (c *Controller) RowKey(addr uint64) uint64 { return c.am.RowKey(addr) }

// Read enqueues a line fill. done.Fn receives the CPU cycle the data
// arrives. Returns false when the channel's read queue is full.
func (c *Controller) Read(addr uint64, done core.Done) bool {
	l := c.am.Decompose(addr)
	cc := c.chans[l.Channel]
	if cc.n[core.Read] >= c.cfg.ReadQ {
		cc.stats.ReadRejects++
		return false
	}
	req := cc.allocReq()
	req.kind = core.Read
	req.loc = l
	req.wordMask = core.FullMask
	req.arrive = c.lastMem + 1
	req.mark = req.arrive
	req.done = done // invoked with the CPU cycle: call sites scale by CPUPerMem
	cc.nextWake = 0
	c.active = true
	// Forward from the write queue: the newest matching write has the data.
	for _, w := range cc.banks[cc.bankOf(l)].q[core.Write] {
		if w.loc == l {
			cc.forwards = append(cc.forwards, req)
			cc.stats.Forwarded++
			return true
		}
	}
	cc.push(req)
	return true
}

// Write enqueues a dirty-line writeback with its FGD byte mask. Returns
// false when the write queue is full. Writes to a line already queued are
// merged (their dirty masks OR together).
func (c *Controller) Write(addr uint64, mask core.ByteMask) bool {
	l := c.am.Decompose(addr)
	cc := c.chans[l.Channel]
	if mask == 0 {
		mask = core.FullByteMask
	}
	// The write mask projection depends on the scheme: PRA selects MAT
	// groups (words), SDS selects chips (byte positions).
	project := core.ByteMask.WordMask
	if c.cfg.Scheme.chipMasks() {
		project = core.ByteMask.ChipMask
	}
	bi := cc.bankOf(l)
	for _, w := range cc.banks[bi].q[core.Write] {
		if w.loc == l {
			// A merge grows need(): what the open mask covers, the
			// activation mask and the false-hit classes all change.
			w.byteMask |= mask
			w.wordMask = project(w.byteMask)
			cc.stale |= 1 << uint(bi)
			return true
		}
	}
	if cc.n[core.Write] >= c.cfg.WriteQ {
		cc.stats.WriteRejects++
		return false
	}
	req := cc.allocReq()
	req.kind = core.Write
	req.loc = l
	req.byteMask = mask
	req.wordMask = project(mask)
	req.arrive = c.lastMem + 1
	req.mark = req.arrive
	cc.push(req)
	cc.nextWake = 0
	c.active = true
	return true
}

// Refused reports whether a request for addr would be refused right now — a
// full read queue, or a full write queue holding no write to merge into —
// and if so books n refusals on its channel. A driver retrying a refused
// request every cycle uses it to account in one step the retries whose
// outcome cannot change before the controller's NextEvent.
func (c *Controller) Refused(addr uint64, write bool, n int64) bool {
	l := c.am.Decompose(addr)
	cc := c.chans[l.Channel]
	if !write {
		if cc.n[core.Read] < c.cfg.ReadQ {
			return false
		}
		cc.stats.ReadRejects += n
		return true
	}
	if cc.n[core.Write] < c.cfg.WriteQ {
		return false
	}
	for _, w := range cc.banks[cc.bankOf(l)].q[core.Write] {
		if w.loc == l {
			return false
		}
	}
	cc.stats.WriteRejects += n
	return true
}

// ResetStats zeroes all counters and accumulated energy; queued requests
// and device state are untouched. Used to exclude warmup from measurement.
func (c *Controller) ResetStats() {
	for _, cc := range c.chans {
		cc.stats = Stats{}
		cc.ch.ResetStats()
		cc.acc.Reset()
		cc.resetLat()
	}
}

// Pending reports whether any request is still queued or forwarding.
func (c *Controller) Pending() bool {
	for _, cc := range c.chans {
		if cc.n[core.Read] > 0 || cc.n[core.Write] > 0 || len(cc.forwards) > 0 {
			return true
		}
	}
	return false
}

// Tick advances the controller at CPU-cycle granularity; DRAM work happens
// every CPUPerMem-th cycle. The stride counter nextMemAt stands in for a
// modulo on the clock ratio: between DRAM ticks the call is one compare.
// A caller that fast-forwarded past nextMemAt without SkipTo is
// resynchronized here (the overshoot is only legal when every skipped
// DRAM tick was a provable no-op, which is what NextEvent guarantees).
func (c *Controller) Tick(cpu int64) {
	if cpu != c.nextMemAt {
		if cpu < c.nextMemAt {
			return
		}
		c.SkipTo(cpu)
		if cpu != c.nextMemAt {
			return
		}
	}
	mem := c.lastMem + 1
	c.lastMem = mem
	c.nextMemAt = cpu + c.cpm
	for _, cc := range c.chans {
		cc.tick(mem)
	}
	c.active = false
	min := int64(farFuture)
	for _, cc := range c.chans {
		if len(cc.forwards) > 0 || cc.nextWake == 0 {
			c.active = true
			return
		}
		if cc.nextWake < min {
			min = cc.nextWake
		}
	}
	c.minWake = min
}

// SkipTo realigns the DRAM clock after the run loop jumps the CPU cycle
// to target (the next cycle it will execute). It restores the invariant
// per-cycle ticking maintains — lastMem is the DRAM cycle of the last
// tick at or before the previous CPU cycle — so request arrival stamps
// taken between DRAM ticks (lastMem+1) match the unskipped run exactly.
func (c *Controller) SkipTo(target int64) {
	if target > c.nextMemAt-c.cpm && target <= c.nextMemAt {
		// Still inside the current DRAM-tick window (nextMemAt is always a
		// clock-ratio multiple, so the window floor is nextMemAt-cpm): the
		// division below would reproduce the state unchanged.
		return
	}
	mem := target / c.cpm
	if target == mem*c.cpm {
		c.lastMem = mem - 1
		c.nextMemAt = target
	} else {
		c.lastMem = mem
		c.nextMemAt = (mem + 1) * c.cpm
	}
}

// MemCycle returns the DRAM cycle of the most recent DRAM tick (-1 before
// the first), i.e. the value per-cycle ticking would have derived as
// floor(cpu/CPUPerMem). Exposed for the clock-stride regression tests.
func (c *Controller) MemCycle() int64 { return c.lastMem }

// NextEvent reports the earliest CPU cycle at which the controller can do
// observable work, assuming nothing new is enqueued before then: the next
// DRAM tick while any channel is active (pending forwards, or a disarmed
// wake meaning the scheduler must scan again), otherwise the earliest
// channel wake-up (readiness or refresh deadline) converted to the CPU
// clock. Skipped cycles in between are exactly the ticks that per-cycle
// operation would spend in the "mem < nextWake" sleep path, whose only
// effect — lazy background-energy accrual — is caught up jump-exactly by
// AdvanceTo/CatchUp.
func (c *Controller) NextEvent(now int64) int64 {
	if c.active {
		return c.nextMemAt
	}
	if c.minWake >= core.FarFuture/c.cpm {
		return core.FarFuture // avoid overflowing the sentinel
	}
	return c.minWake * c.cpm
}

// CatchUp brings the lazy per-channel background-energy accounting to the
// point per-cycle ticking would have reached just before CPU cycle cpu —
// through the last DRAM tick at or before cpu-1. The run loop calls it
// before reading energy or rank-state cycle counters (epoch samples,
// end-of-run results) so fast-forwarding never leaves them stale; under
// per-cycle ticking it is a no-op.
func (c *Controller) CatchUp(cpu int64) {
	mem := (cpu - 1) / c.cpm
	for _, cc := range c.chans {
		cc.ch.AdvanceTo(mem)
	}
}

// Stats returns the channel-summed controller statistics.
func (c *Controller) Stats() Stats {
	var s Stats
	for _, cc := range c.chans {
		s.Add(cc.stats)
	}
	return s
}

// DeviceStats returns the channel-summed DRAM event statistics. As a probe
// it flushes pending background spans first, so the rank-cycle counters are
// current through the last clocked cycle.
func (c *Controller) DeviceStats() dram.Stats {
	var s dram.Stats
	for _, cc := range c.chans {
		cc.ch.FlushBackground()
		d := cc.ch.Stats
		for g := range s.ActsByGranularity {
			s.ActsByGranularity[g] += d.ActsByGranularity[g]
		}
		s.Reads += d.Reads
		s.Writes += d.Writes
		s.Precharges += d.Precharges
		s.Refreshes += d.Refreshes
		s.PerBankRefreshes += d.PerBankRefreshes
		s.PostponedRefreshes += d.PostponedRefreshes
		s.PulledInRefreshes += d.PulledInRefreshes
		s.SelfRefEntries += d.SelfRefEntries
		s.PowerDownCycles += d.PowerDownCycles
		s.ActivePDCycles += d.ActivePDCycles
		s.SlowPDCycles += d.SlowPDCycles
		s.SelfRefCycles += d.SelfRefCycles
		s.ActiveRankCycles += d.ActiveRankCycles
		s.PrechargedRankCycles += d.PrechargedRankCycles
		s.WordsWritten += d.WordsWritten
		s.WordBudget += d.WordBudget
		s.RFMs += d.RFMs
		s.RowSpills += d.RowSpills
	}
	return s
}

// Energy returns the channel-summed energy breakdown in pJ. As a probe it
// flushes pending background spans first.
func (c *Controller) Energy() power.Breakdown {
	var b power.Breakdown
	for _, cc := range c.chans {
		cc.ch.FlushBackground()
		b = b.Add(cc.acc.Energy())
	}
	return b
}

// --- per-channel scheduling ---

// farFuture aliases the shared next-event sentinel (core.FarFuture) under
// the name the scheduling passes historically used.
const farFuture = core.FarFuture

func (cc *chanCtl) tick(mem int64) {
	cc.ch.Clock(mem)

	// Complete write-forwarded reads one memory cycle after enqueue.
	if len(cc.forwards) > 0 {
		for i, f := range cc.forwards {
			cc.stats.ReadsServed++
			cc.stats.RowHitRead++ // served without any DRAM activity
			cc.stats.ReadLatencySum += mem - f.arrive
			cc.completeLat(f, mem, mem) // no DRAM command: all queue time
			f.done.Fn(mem * cc.cfg.CPUPerMem)
			cc.forwards[i] = nil
			cc.releaseReq(f)
		}
		cc.forwards = cc.forwards[:0]
	}

	// Nothing can become issueable before nextWake (it is cleared on every
	// enqueue and issued command); skip the scheduling scans until then.
	if mem < cc.nextWake {
		return
	}

	// Wake powered-down ranks that have work (requests or a refresh the
	// rank must take — under elastic refresh a merely-due refresh is
	// postponed rather than cutting the sleep short); the wake costs the
	// state's exit latency before the first command (tXP/tXPDLL/tXS).
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		if cc.rankHasWork(r) {
			cc.lastWork[r] = mem
		}
		if cc.ch.PoweredDown(r) && (cc.rankHasWork(r) || cc.refreshWakes(mem, r)) {
			st := cc.ch.PDStateOf(r)
			cc.ch.Wake(mem, r)
			if cc.ev.Enabled(obs.LevelState) {
				cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
					Kind: "wake", Detail: fmt.Sprintf("rank %d out of %v", r, st)})
			}
		}
	}

	// Watermark-driven write drain (Section 5.1.2).
	if writes := cc.n[core.Write]; writes >= cc.cfg.HighWM {
		if !cc.drain && cc.ev.Enabled(obs.LevelState) {
			cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
				Kind: "drain-start", Detail: fmt.Sprintf("write queue %d >= high watermark %d", writes, cc.cfg.HighWM)})
		}
		cc.drain = true
	} else if cc.drain && writes <= cc.cfg.LowWM {
		cc.drain = false
		if cc.ev.Enabled(obs.LevelState) {
			cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
				Kind: "drain-stop", Detail: fmt.Sprintf("write queue %d <= low watermark %d", writes, cc.cfg.LowWM)})
		}
	}

	cc.wakeMin = farFuture
	if cc.schedule(mem) {
		cc.nextWake = 0
		return
	}
	// Nothing issued: sleep until the earliest collected readiness or the
	// next refresh deadline, whichever comes first.
	wake := cc.wakeMin
	if due := cc.refreshHorizon(mem); due < wake {
		wake = due
	}
	if wake <= mem {
		wake = mem + 1
	}
	cc.nextWake = wake
}

// schedule makes one scheduling pass; reports whether a command issued.
func (cc *chanCtl) schedule(mem int64) bool {
	if cc.issueRefresh(mem) {
		return true
	}
	// Alert back-off (mitigation.go): a raised alert stalls everything
	// but refresh — refresh keeps priority so mitigation can never starve
	// the retention deadline — until the RFM has issued.
	if cc.rfmPending {
		return cc.issueRFM(mem)
	}
	// From here to the command this pass issues (which ends it) nothing
	// mutates the lists or the device: the wake loop and the two gates above
	// ran already. So decisions settled now and rank terms taken at the
	// first candidate that needs them hold for the whole pass.
	cc.settle()
	cc.termsOK = 0
	primary, secondary := core.Read, core.Write
	if cc.drain || cc.n[core.Read] == 0 {
		primary, secondary = core.Write, core.Read
	}
	if cc.tryColumn(mem, primary) {
		return true
	}
	// Secondary-queue columns drain ahead of primary ACT/PRE work: a
	// column to an already-open row is cheap, and it guarantees that rows
	// kept open for queued beneficiaries (see tryPrep) actually drain
	// instead of starving the bank.
	if cc.tryColumn(mem, secondary) {
		return true
	}
	if cc.tryPrep(mem, primary) {
		return true
	}
	if cc.tryPrep(mem, secondary) {
		return true
	}
	return cc.idleManage(mem)
}

// settle re-derives the cached decision of every stale bank from its lists,
// open row and hit count. Only such list-derived decisions are cached; when
// the wanted command is legal is recomputed by every pass (rankTerms), and
// every candidate that is not ready still reports its exact ready cycle. A
// bank absent from a candidate set is one the pass would have evaluated to
// "nothing to do here" without a noteReady.
func (cc *chanCtl) settle() {
	for set := cc.stale; set != 0; set &= set - 1 {
		bi := bits.TrailingZeros64(set)
		bit := uint64(1) << uint(bi)
		b := &cc.banks[bi]
		row, mask, open := cc.ch.OpenRow(b.rank, b.bank)
		benefits := false // a queued request hits the open row within the cap
		for k := range b.q {
			cc.colCand[k] &^= bit
			if open && b.hits < cc.cfg.MaxRowHits && b.same[k] > 0 {
				if pos := b.covered(core.AccessKind(k), row, mask, nil); pos >= 0 {
					b.colPos[k] = pos
					cc.colCand[k] |= bit
					benefits = true
				}
			}
			cc.fhCand[k] &^= bit
			if open && !mask.IsFull() && b.same[k] > 0 {
				cc.fhCand[k] |= bit
			}
		}
		cc.closeCand &^= bit
		if open && !benefits {
			cc.closeCand |= bit
		}
		for k := range b.q {
			if !open && len(b.q[k]) > 0 {
				b.act[k] = cc.actMask(b, b.q[k][0])
			}
		}
	}
	cc.stale = 0
}

// prepCand returns the banks whose kind-k list head needs an ACT (closed
// bank) or a PRE (bank in closeCand): the non-empty ones whose open row, if
// any, has no beneficiary left. A row with one drains first (bounded by the
// hit cap), so read/write phase switches do not waste fresh activations —
// and a head that itself hits is waiting for the column path.
func (cc *chanCtl) prepCand(k core.AccessKind) uint64 {
	return cc.nonEmpty[k] &^ (cc.colCand[core.Read] | cc.colCand[core.Write])
}

// rankTerms returns rank r's share of command readiness at the pass cycle
// mem, computing it on the pass's first request for it.
func (cc *chanCtl) rankTerms(mem int64, r int) *rankTerms {
	if cc.termsOK&(1<<uint(r)) == 0 {
		cc.termsOK |= 1 << uint(r)
		cc.ch.RankTerms(mem, r, &cc.terms[r].RankTerms)
		cc.terms[r].fawOK = 0
	}
	return &cc.terms[r]
}

// fawTerm returns the tFAW term of an ACT of mask m in rank r, computed once
// per pass and activation granularity (all the weight depends on).
func (cc *chanCtl) fawTerm(t *rankTerms, r int, m core.Mask) int64 {
	g := uint(m.Granularity())
	if t.fawOK&(1<<g) == 0 {
		t.fawOK |= 1 << g
		t.faw[g] = cc.ch.FAWReadyAt(r, m, cc.cfg.Scheme.halfDRAMOrg())
	}
	return t.faw[g]
}

// refreshWakes reports whether a refresh obligation justifies waking
// powered-down rank r: any due refresh under the conventional modes, only
// a must-issue one (postponement credit exhausted) under elastic refresh.
func (cc *chanCtl) refreshWakes(mem int64, r int) bool {
	if cc.cfg.RefreshMode == RefreshElastic {
		return cc.ch.RefreshMust(mem, r)
	}
	return cc.ch.RefreshDue(mem, r)
}

// refreshWanted reports whether this pass should push a refresh toward
// rank r. Powered-down ranks never want one here: the wake loop at the top
// of the pass decides when a refresh is worth a wake, so a still-sleeping
// rank is by definition one whose refreshes are being deferred. Under
// elastic refresh an awake busy rank postpones due refreshes until either
// the 8x tREFI credit runs out or the rank goes idle.
func (cc *chanCtl) refreshWanted(mem int64, r int) bool {
	if cc.ch.PoweredDown(r) {
		return false
	}
	if cc.cfg.RefreshMode == RefreshElastic {
		return cc.ch.RefreshMust(mem, r) ||
			(cc.ch.RefreshDue(mem, r) && !cc.rankHasWork(r))
	}
	return cc.ch.RefreshDue(mem, r)
}

// refreshHorizon returns the earliest cycle a refresh obligation can force
// scheduling work, for the channel sleep computation. Under elastic
// refresh a powered-down or busy rank only matters at its must-refresh
// deadline (its merely-due refreshes are being postponed); elsewhere the
// plain next-due time stands.
func (cc *chanCtl) refreshHorizon(mem int64) int64 {
	if cc.cfg.RefreshMode != RefreshElastic {
		return cc.ch.NextRefreshAny()
	}
	h := int64(farFuture)
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		var at int64
		if cc.ch.PoweredDown(r) || cc.rankHasWork(r) {
			at = cc.ch.MustRefreshAt(r)
		} else {
			at = cc.ch.NextRefreshAt(r)
		}
		if at < h {
			h = at
		}
	}
	return h
}

// issueRefresh drives due refreshes: close the rank's banks, then REF (or
// a round-robin REFpb under per-bank refresh). Returns true when it
// consumed the command slot.
func (cc *chanCtl) issueRefresh(mem int64) bool {
	if cc.ch.NextRefreshAny() > mem {
		// No rank is due. refPending entries are already false: a pending
		// flag only rises while its rank is due, and the refresh that
		// clears the due condition resets the flag in the same pass.
		return false
	}
	for r := 0; r < cc.cfg.Geom.Ranks; r++ {
		if cc.cfg.RefreshMode == RefreshPerBank {
			// REFpb blocks only its target bank, so the rank-wide
			// refPending column freeze does not apply.
			if cc.refreshWanted(mem, r) && cc.issueRefreshBank(mem, r) {
				return true
			}
			continue
		}
		if !cc.refreshWanted(mem, r) {
			cc.refPending[r] = false
			continue
		}
		cc.refPending[r] = true
		if cc.ch.AnyBankOpen(r) {
			for b := 0; b < cc.cfg.Geom.Banks; b++ {
				if _, _, open := cc.ch.OpenRow(r, b); open && cc.precharge(mem, r, b) {
					return true
				}
			}
			continue // waiting for tRAS/tWR on some bank
		}
		if at, ok := cc.ch.RefreshReadyAt(mem, r); ok {
			if at <= mem {
				if err := cc.ch.Refresh(mem, r); err == nil {
					cc.refPending[r] = false
					if cc.ev.Enabled(obs.LevelState) {
						cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
							Kind: "refresh", Detail: fmt.Sprintf("rank %d blocked for tRFC=%d", r, cc.cfg.Timing.TRFC)})
					}
					return true
				}
			} else {
				cc.noteReady(at)
			}
		}
	}
	return false
}

// issueRefreshBank pushes rank r's round-robin per-bank refresh forward:
// close the target bank if a row is open there, then REFpb. Returns true
// when it consumed the command slot. REFpb cannot lose the bank to a
// re-activation: issueRefresh runs first in every scheduling pass and both
// REFpb and ACT are gated by the same actAllowed window, so the refresh
// command wins the first cycle both become legal.
func (cc *chanCtl) issueRefreshBank(mem int64, r int) bool {
	b := cc.ch.NextRefreshBank(r)
	if _, _, open := cc.ch.OpenRow(r, b); open {
		return cc.precharge(mem, r, b)
	}
	at, ok := cc.ch.RefreshBankReadyAt(mem, r)
	if !ok {
		return false
	}
	if at > mem {
		cc.noteReady(at)
		return false
	}
	if err := cc.ch.RefreshBank(mem, r); err != nil {
		return false
	}
	if cc.ev.Enabled(obs.LevelState) {
		cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
			Kind: "refresh", Detail: fmt.Sprintf("rank %d bank %d blocked for tRFCpb=%d", r, b, cc.cfg.Timing.TRFCPB)})
	}
	return true
}

// writeFrac returns the fraction of the line's words transferred for a
// write: PRA schemes drive only dirty words (Section 4.1.2); FGA halves
// the bus rate instead.
func (cc *chanCtl) writeFrac(req *request) float64 {
	if !cc.cfg.Scheme.praWrites() || cc.cfg.NoPartialIO {
		return cc.cfg.Scheme.ioFrac()
	}
	return req.need().Fraction()
}

// tryColumn issues the oldest ready column command of kind k for a covered
// open-row request, honoring the open-row access cap. Only banks in
// colCand[k] hold a candidate — their oldest covered request — and all
// same-kind requests to one bank share one readiness time, so the ready
// candidate with the smallest seq is the one an arrival-order walk of the
// whole queue would reach first. A not-ready candidate reports its exact
// ready time to noteReady: those times set nextWake when the pass issues
// nothing, and pass cycles are simulation-visible through lastWork. Once a
// ready candidate is held the pass will issue, wakeMin is discarded, and
// younger candidates need no evaluation.
func (cc *chanCtl) tryColumn(mem int64, k core.AccessKind) bool {
	var (
		win     *request
		winPos  int
		winBank dram.CmdTerms
	)
	for set := cc.colCand[k]; set != 0; set &= set - 1 {
		b := &cc.banks[bits.TrailingZeros64(set)]
		req := b.q[k][b.colPos[k]]
		if cc.refPending[b.rank] || (win != nil && req.seq > win.seq) {
			continue
		}
		bank, rank := cc.ch.BankTerms(b.rank, b.bank), cc.rankTerms(mem, b.rank)
		at := max(mem, bank.Read, rank.Read)
		if k == core.Write {
			at = max(mem, bank.Write, rank.Write)
		}
		if at > mem {
			cc.noteReady(at)
			continue
		}
		win, winPos, winBank = req, b.colPos[k], bank
	}
	return win != nil && cc.issueColumn(mem, win, winPos, winBank)
}

// issueColumn issues the column command for req, position i of its bank's
// list, whose bank terms say with the pass's rank terms that it is legal at
// mem. The same parts explain the command's wait by constraint family for
// the attribution sweep; the device re-checks legality on issue. Reports
// whether the command issued.
func (cc *chanCtl) issueColumn(mem int64, req *request, i int, bank dram.CmdTerms) bool {
	l := req.loc
	burst := cc.cfg.Scheme.burstCycles(cc.cfg.Timing.TBURST)
	_, mask, _ := cc.ch.OpenRow(l.Rank, l.Bank)
	autoPre := cc.autoPrecharge(req, mask)
	rank := cc.rankTerms(mem, l.Rank)
	var terms dram.LatTerms
	if req.kind == core.Read {
		rank.ReadLatTerms(mem, bank, &terms)
		done, err := cc.ch.Read(mem, l.Rank, l.Bank, burst, cc.cfg.Scheme.ioFrac(), autoPre)
		if err != nil {
			return false
		}
		cc.finishColumn(req, i, autoPre)
		cc.stats.ReadLatencySum += done - req.arrive
		cc.sweepWait(req, mem, &terms)
		cc.completeLat(req, mem, done)
		req.done.Fn(done * cc.cfg.CPUPerMem)
	} else {
		rank.WriteLatTerms(mem, bank, &terms)
		end, err := cc.ch.Write(mem, l.Rank, l.Bank, burst, cc.writeFrac(req), autoPre)
		if err != nil {
			return false
		}
		cc.finishColumn(req, i, autoPre)
		cc.stats.WriteLatencySum += end - req.arrive
		cc.sweepWait(req, mem, &terms)
		cc.completeLat(req, mem, end)
	}
	cc.releaseReq(req)
	return true
}

// finishColumn updates hit accounting and removes the request from its
// bank's list.
func (cc *chanCtl) finishColumn(req *request, i int, autoPre bool) {
	if req.kind == core.Read {
		cc.stats.ReadsServed++
		if !req.activated {
			cc.stats.RowHitRead++
		}
	} else {
		cc.stats.WritesServed++
		if !req.activated {
			cc.stats.RowHitWrite++
		}
	}
	cc.remove(req, i, autoPre)
}

// autoPrecharge decides whether a column access should close the row:
// always under the restricted policy; under the relaxed policy only when
// no queued request would hit the (possibly partial) open row within the
// access cap.
func (cc *chanCtl) autoPrecharge(req *request, openMask core.Mask) bool {
	if cc.cfg.Policy == RestrictedClose {
		return true
	}
	b := &cc.banks[cc.bankOf(req.loc)]
	if b.hits+1 >= cc.cfg.MaxRowHits {
		return true
	}
	if cc.cfg.Policy == OpenPage {
		return false // rows stay open until a conflict or the hit cap
	}
	// req itself is still queued, so a count of 1 means nobody else.
	if b.same[core.Read]+b.same[core.Write] <= 1 {
		return true
	}
	if openMask.IsFull() {
		return false // any same-row request hits a full row
	}
	return b.covered(core.Read, req.loc.Row, openMask, req) < 0 &&
		b.covered(core.Write, req.loc.Row, openMask, req) < 0
}

// actMask computes the activation mask for a request (Section 5.2.1: PRA
// masks of queued same-row writes are ORed; a queued same-row read forces
// a full activation).
func (cc *chanCtl) actMask(b *bankQ, req *request) core.Mask {
	if !cc.cfg.Scheme.praWrites() || req.kind == core.Read {
		return core.FullMask
	}
	for _, o := range b.q[core.Read] {
		if o.loc.Row == req.loc.Row {
			return core.FullMask
		}
	}
	m := req.need()
	for _, o := range b.q[core.Write] {
		if o.loc.Row == req.loc.Row {
			m = m.Union(o.need())
		}
	}
	return m
}

// tryPrep progresses the oldest request of kind k that needs an ACT or a
// PRE. Only the oldest request per bank matters (FCFS within a bank), so
// each bank in prepCand(k) offers its list head, and the head with the
// smallest seq whose command is legal now is the one an arrival-order walk
// would issue for. Readiness reporting follows the same rule as in
// tryColumn.
func (cc *chanCtl) tryPrep(mem int64, k core.AccessKind) bool {
	var (
		win     *request
		winBank int
		winT    dram.CmdTerms
	)
	for set := cc.prepCand(k); set != 0; set &= set - 1 {
		bi := bits.TrailingZeros64(set)
		b := &cc.banks[bi]
		head := b.q[k][0]
		if cc.refPending[b.rank] || (win != nil && head.seq > win.seq) {
			continue
		}
		bank, rank := cc.ch.BankTerms(b.rank, b.bank), cc.rankTerms(mem, b.rank)
		var at int64
		if cc.closeCand&(1<<uint(bi)) != 0 { // open, no beneficiary: conflict it away
			at = max(mem, bank.Pre, rank.Pre)
		} else {
			at = max(mem, bank.Act, rank.Act, cc.fawTerm(rank, b.rank, b.act[k]))
		}
		if at > mem {
			cc.noteReady(at)
			continue
		}
		win, winBank, winT = head, bi, bank
	}
	if win == nil {
		cc.markFalseHits(k, ^uint64(0))
		return false
	}
	cc.markFalseHits(k, win.seq)
	l := win.loc
	if cc.closeCand&(1<<uint(winBank)) != 0 {
		return cc.precharge(mem, l.Rank, l.Bank)
	}
	mask, rank := cc.banks[winBank].act[k], cc.rankTerms(mem, l.Rank)
	var terms dram.LatTerms // for the attribution sweep; Activate re-checks legality
	rank.ActLatTerms(mem, winT, cc.fawTerm(rank, l.Rank, mask), &terms)
	if err := cc.ch.Activate(mem, l.Rank, l.Bank, l.Row, mask, cc.cfg.Scheme.halfDRAMOrg()); err != nil {
		return false
	}
	cc.banks[winBank].hits = 0
	cc.recount(winBank, l.Row)
	win.activated = true
	cc.sweepWait(win, mem, &terms)
	if k == core.Read {
		cc.stats.ActsForReads++
	} else {
		cc.stats.ActsForWrites++
	}
	cc.mitOnAct(mem, l)
	return true
}

// markFalseHits does the false-hit accounting of one tryPrep pass: every
// queued request of kind k that observes its row partially open without
// the words it needs is counted once, even while older same-bank requests
// are still in line (Section 5.2.1) — in a conventional DRAM it would have
// hit the open row. An arrival-order walk reaches a request only before it
// issues, so the pass marks requests up to the winner's seq (limit; all of
// them when nothing issues). Only banks with a queued request on a
// partially open row can hold one (fhCand), and a bank marked in full — limit
// = all, rank not frozen for a refresh — has none left until it goes stale.
func (cc *chanCtl) markFalseHits(k core.AccessKind, limit uint64) {
	for set := cc.fhCand[k]; set != 0; set &= set - 1 {
		bi := bits.TrailingZeros64(set)
		b := &cc.banks[bi]
		if cc.refPending[b.rank] {
			continue
		}
		if limit == ^uint64(0) {
			cc.fhCand[k] &^= 1 << uint(bi)
		}
		row, mask, _ := cc.ch.OpenRow(b.rank, b.bank)
		for _, req := range b.q[k] {
			if req.seq > limit {
				break
			}
			if req.loc.Row == row && !req.falseHit &&
				core.ClassifyAccess(true, true, mask, k, req.need()) == core.FalseHit {
				req.falseHit = true
				if k == core.Read {
					cc.stats.FalseHitRead++
				} else {
					cc.stats.FalseHitWrite++
				}
			}
		}
	}
}

// idleManage closes rows no queued request benefits from and power-downs
// idle ranks (relaxed close-page with precharge power-down). Reports
// whether a precharge command was issued.
func (cc *chanCtl) idleManage(mem int64) bool {
	geom := cc.cfg.Geom
	if cc.cfg.Policy != OpenPage {
		// Ascending bank index is rank-major, bank-minor: the first legal
		// PRE wins and every earlier one reports when it becomes legal.
		for set := cc.closeCand; set != 0; set &= set - 1 {
			b := &cc.banks[bits.TrailingZeros64(set)]
			at := max(mem, cc.ch.BankTerms(b.rank, b.bank).Pre, cc.rankTerms(mem, b.rank).Pre)
			if at > mem {
				cc.noteReady(at)
			} else if cc.precharge(mem, b.rank, b.bank) {
				return true
			}
		}
	}
	for r := 0; r < geom.Ranks; r++ {
		if cc.rankHasWork(r) {
			continue
		}
		if st := cc.ch.PDStateOf(r); st != dram.PDAwake {
			// Self-refresh escalation: a rank that has slept in precharge
			// power-down past SRTimeout is woken (paying the exit latency)
			// so the self-refresh entry command can issue on a later pass.
			if (st == dram.PDPrechargeFast || st == dram.PDPrechargeSlow) && cc.srDueAt(r) <= mem {
				cc.ch.Wake(mem, r)
				if cc.ev.Enabled(obs.LevelState) {
					cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
						Kind: "wake", Detail: fmt.Sprintf("rank %d out of %v to escalate to self-refresh", r, st)})
				}
				cc.noteReady(cc.ch.PDEntryReadyAt(r))
			}
			continue
		}
		if cc.ch.RefreshDue(mem, r) {
			continue // issueRefresh owns the rank until it is current
		}
		pdAt := cc.pdDueAt(mem, r)
		if cc.ch.AnyBankOpen(r) {
			// Open rows with no queued beneficiary only persist under the
			// open-page policy; active power-down is their companion state.
			if !cc.cfg.APD {
				continue
			}
			if pdAt > mem {
				cc.noteReady(pdAt)
				continue
			}
			if at := cc.ch.PDEntryReadyAt(r); at > mem {
				cc.noteReady(at)
			} else if cc.ch.EnterActivePowerDown(mem, r) && cc.ev.Enabled(obs.LevelState) {
				cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
					Kind: "power-down", Detail: fmt.Sprintf("rank %d idle, entering active power-down", r)})
			}
			continue
		}
		srAt := cc.srDueAt(r)
		// Elastic pull-in: about to sleep with refresh credit to spare —
		// refresh early so the coming sleep is not cut short. Pointless
		// when self-refresh is imminent (the device then refreshes itself).
		if cc.cfg.RefreshMode == RefreshElastic && pdAt <= mem && srAt > mem && cc.ch.CanPullIn(mem, r) {
			if at, ok := cc.ch.RefreshReadyAt(mem, r); ok {
				if at <= mem {
					if cc.ch.Refresh(mem, r) == nil {
						if cc.ev.Enabled(obs.LevelState) {
							cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
								Kind: "refresh", Detail: fmt.Sprintf("rank %d pull-in before power-down", r)})
						}
						return true
					}
				} else {
					cc.noteReady(at)
				}
			}
			continue
		}
		if srAt <= mem {
			if at := cc.ch.PDEntryReadyAt(r); at > mem {
				cc.noteReady(at)
			} else if cc.ch.EnterSelfRefresh(mem, r) && cc.ev.Enabled(obs.LevelState) {
				cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
					Kind: "self-refresh", Detail: fmt.Sprintf("rank %d idle for %d cycles, entering self-refresh", r, mem-cc.lastWork[r])})
			}
			continue
		}
		if cc.cfg.SRTimeout > 0 {
			cc.noteReady(srAt)
		}
		if pdAt > mem {
			if cc.cfg.PDPolicy != PDNone {
				cc.noteReady(pdAt)
			}
			continue
		}
		if at := cc.ch.PDEntryReadyAt(r); at > mem {
			cc.noteReady(at)
			continue
		}
		if cc.ch.EnterPowerDown(mem, r) && cc.ev.Enabled(obs.LevelState) {
			cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
				Kind: "power-down", Detail: fmt.Sprintf("rank %d idle, entering precharge power-down", r)})
		}
	}
	return false
}

// pdDueAt returns the cycle at which the power-down policy wants idle rank
// r to drop CKE (farFuture under PDNone; a value <= mem means "now").
func (cc *chanCtl) pdDueAt(mem int64, r int) int64 {
	switch cc.cfg.PDPolicy {
	case PDNone:
		return farFuture
	case PDTimed:
		return cc.lastWork[r] + cc.cfg.PDTimeout
	case PDQueueAware:
		if cc.n[core.Read] == 0 && cc.n[core.Write] == 0 {
			return mem
		}
		return cc.lastWork[r] + cc.cfg.PDTimeout
	default: // PDImmediate
		return mem
	}
}

// srDueAt returns the cycle at which idle rank r should escalate to
// self-refresh (farFuture when escalation is disabled).
func (cc *chanCtl) srDueAt(r int) int64 {
	if cc.cfg.SRTimeout == 0 {
		return farFuture
	}
	return cc.lastWork[r] + cc.cfg.SRTimeout
}

func (cc *chanCtl) rankHasWork(rank int) bool { return cc.rankCount[rank] > 0 }
