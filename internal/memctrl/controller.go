package memctrl

import (
	"fmt"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/obs"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// Config assembles a full memory system: scheme, policy, mapping, and the
// per-channel organization.
type Config struct {
	Scheme  Scheme
	Policy  Policy
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

	// ECC models an x72 DIMM: a ninth chip per rank stores ECC codes with
	// its PRA pin tied high (Section 4.2) — it always fully activates and
	// always transfers, while the eight data chips keep their partial-
	// activation savings. Timing is unchanged; only energy accounting
	// differs.
	ECC bool

	// Power-down management (DESIGN.md §4f). The zero values reproduce the
	// pre-FSM behavior: immediate fast-exit precharge power-down, no active
	// power-down, no self-refresh, conventional all-bank refresh.
	PDPolicy  PDPolicy // when idle ranks drop CKE
	PDTimeout int64    // idle memory cycles before PDTimed/PDQueueAware entry
	// SRTimeout escalates a rank to self-refresh after this many idle
	// memory cycles (0 = never). Independent of PDPolicy: a rank already
	// in precharge power-down is woken (paying the exit latency) so the
	// self-refresh entry command can issue.
	SRTimeout int64
	// PDSlowExit selects slow-exit (DLL-off) precharge power-down: lower
	// background power, tXPDLL instead of tXP on exit.
	PDSlowExit bool
	// APD allows active power-down for idle ranks with open rows (only
	// reachable under the open-page policy, which keeps rows open with no
	// queued beneficiary).
	APD bool
	// RefreshMode selects all-bank, per-bank, or elastic (postpone and
	// pull-in within the JEDEC 8x tREFI window) refresh management.
	RefreshMode RefreshMode

	// RowHammer mitigation (DESIGN.md §4g): PRAC-style per-row activation
	// counting with Alert/RFM back-off, orthogonal to Scheme (any scheme
	// can run with or without it). MitThreshold == 0 disables everything:
	// no counter table is allocated and results are bit-identical to a
	// build without the feature.
	//
	// When a row's activation count since its bank's last refresh reaches
	// MitThreshold, the device raises an alert: the channel's command
	// stream stalls for MitAlertCycles (the ALERT_n back-off real PRAC
	// devices enforce), after which the controller issues an RFM command
	// to the offending bank (precharging it first if needed) that
	// refreshes the highest-count row's victims and clears its counter.
	MitThreshold int
	// MitAlertCycles is the alert back-off in memory cycles before the
	// RFM may issue (0 selects the default 144 cycles = 180ns, the
	// per-alert overhead measured on real PRAC parts).
	MitAlertCycles int64
	// MitTableCap bounds the per-bank counter table (0 selects the
	// default 512 rows). Overflow falls back to a Misra-Gries spill floor
	// that may overcount but never undercounts a row (dram/rowcounter.go).
	MitTableCap int

	// Latency attribution (DESIGN.md §4h). LatBreak enables the
	// per-request latency breakdown, the percentile histograms, and span
	// sampling. Attribution is purely observational: with LatBreak off the
	// per-request cost is one int64 assignment and simulated results are
	// bit-identical to a controller without the feature.
	LatBreak bool
	// LatSpanEvery samples every Nth completed request into the span ring
	// for trace export (0 disables sampling; only meaningful with
	// LatBreak).
	LatSpanEvery int

	// Ablation knobs (all default off = full PRA as published). They
	// isolate the contribution of each PRA design element:
	//   NoTimingRelax  — partial ACTs charge full tRRD/tFAW weight.
	//   NoPartialIO    — writes drive all 8 words even under PRA masks.
	//   NoMaskCycle    — the PRA mask transfer costs no extra cycle.
	NoTimingRelax bool
	NoPartialIO   bool
	NoMaskCycle   bool
}

// DefaultConfig returns the paper's Table 3 memory system.
func DefaultConfig() Config {
	return Config{
		Scheme:   Baseline,
		Policy:   RelaxedClose,
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
	switch {
	case c.PDPolicy > PDQueueAware:
		return fmt.Errorf("memctrl: unknown power-down policy %d", c.PDPolicy)
	case c.RefreshMode > RefreshElastic:
		return fmt.Errorf("memctrl: unknown refresh mode %d", c.RefreshMode)
	case c.PDTimeout < 0 || c.SRTimeout < 0:
		return fmt.Errorf("memctrl: power-down timeouts must be non-negative")
	case (c.PDPolicy == PDTimed || c.PDPolicy == PDQueueAware) && c.PDTimeout == 0:
		return fmt.Errorf("memctrl: %v power-down policy requires PDTimeout > 0", c.PDPolicy)
	case c.MitThreshold < 0 || c.MitAlertCycles < 0 || c.MitTableCap < 0:
		return fmt.Errorf("memctrl: mitigation parameters must be non-negative")
	case c.LatSpanEvery < 0:
		return fmt.Errorf("memctrl: LatSpanEvery must be non-negative")
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
	rowKey    uint64
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

	readQ, writeQ []*request
	drain         bool
	hitCount      [][]int
	refPending    []bool
	forwards      []*request // reads served from the write queue

	// rowCount tracks queued requests per row key and rankCount per rank,
	// so the hot benefit/idle checks avoid scanning the queues. rowCount is
	// a small unordered key/count list rather than a map: the queues hold a
	// handful of distinct rows at a time, and a linear scan over that beats
	// map hashing on the scheduling hot path. No caller iterates it, so its
	// internal order (swap-delete on removal) cannot leak into results.
	rowCount  rowCounts
	rankCount []int

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

func (cc *chanCtl) noteAdd(req *request) {
	cc.rowCount.inc(req.rowKey)
	cc.rankCount[req.loc.Rank]++
}

func (cc *chanCtl) noteRemove(req *request) {
	cc.rowCount.dec(req.rowKey)
	cc.rankCount[req.loc.Rank]--
}

// rowCounts is a small key→count multiset over row keys.
type rowCounts []rowKC

type rowKC struct {
	key uint64
	n   int
}

func (rc rowCounts) get(key uint64) int {
	for i := range rc {
		if rc[i].key == key {
			return rc[i].n
		}
	}
	return 0
}

func (rc *rowCounts) inc(key uint64) {
	s := *rc
	for i := range s {
		if s[i].key == key {
			s[i].n++
			return
		}
	}
	*rc = append(s, rowKC{key: key, n: 1})
}

func (rc *rowCounts) dec(key uint64) {
	s := *rc
	for i := range s {
		if s[i].key != key {
			continue
		}
		if s[i].n--; s[i].n == 0 {
			last := len(s) - 1
			s[i] = s[last]
			*rc = s[:last]
		}
		return
	}
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
		cc.hitCount = make([][]int, cfg.Geom.Ranks)
		for r := range cc.hitCount {
			cc.hitCount[r] = make([]int, cfg.Geom.Banks)
		}
		cc.refPending = make([]bool, cfg.Geom.Ranks)
		cc.rowCount = nil
		cc.rankCount = make([]int, cfg.Geom.Ranks)
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
	if len(cc.readQ) >= c.cfg.ReadQ {
		cc.stats.ReadRejects++
		return false
	}
	req := cc.allocReq()
	req.kind = core.Read
	req.loc = l
	req.rowKey = c.am.RowKeyOf(l)
	req.wordMask = core.FullMask
	req.arrive = c.lastMem + 1
	req.mark = req.arrive
	req.done = done // invoked with the CPU cycle: call sites scale by CPUPerMem
	cc.nextWake = 0
	c.active = true
	// Forward from the write queue: the newest matching write has the data.
	for _, w := range cc.writeQ {
		if w.loc == l {
			cc.forwards = append(cc.forwards, req)
			cc.stats.Forwarded++
			return true
		}
	}
	cc.readQ = append(cc.readQ, req)
	cc.noteAdd(req)
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
	for _, w := range cc.writeQ {
		if w.loc == l {
			w.byteMask |= mask
			w.wordMask = project(w.byteMask)
			return true
		}
	}
	if len(cc.writeQ) >= c.cfg.WriteQ {
		cc.stats.WriteRejects++
		return false
	}
	req := cc.allocReq()
	req.kind = core.Write
	req.loc = l
	req.rowKey = c.am.RowKeyOf(l)
	req.byteMask = mask
	req.wordMask = project(mask)
	req.arrive = c.lastMem + 1
	req.mark = req.arrive
	cc.writeQ = append(cc.writeQ, req)
	cc.noteAdd(req)
	cc.nextWake = 0
	c.active = true
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
		if len(cc.readQ) > 0 || len(cc.writeQ) > 0 || len(cc.forwards) > 0 {
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
	if len(cc.writeQ) >= cc.cfg.HighWM {
		if !cc.drain && cc.ev.Enabled(obs.LevelState) {
			cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
				Kind: "drain-start", Detail: fmt.Sprintf("write queue %d >= high watermark %d", len(cc.writeQ), cc.cfg.HighWM)})
		}
		cc.drain = true
	} else if cc.drain && len(cc.writeQ) <= cc.cfg.LowWM {
		cc.drain = false
		if cc.ev.Enabled(obs.LevelState) {
			cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
				Kind: "drain-stop", Detail: fmt.Sprintf("write queue %d <= low watermark %d", len(cc.writeQ), cc.cfg.LowWM)})
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
	primary, secondary := &cc.readQ, &cc.writeQ
	if cc.drain || len(cc.readQ) == 0 {
		primary, secondary = &cc.writeQ, &cc.readQ
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
				if _, _, open := cc.ch.OpenRow(r, b); !open {
					continue
				}
				if at := cc.ch.PreReadyAt(mem, r, b); at <= mem {
					if err := cc.ch.Precharge(mem, r, b); err == nil {
						cc.hitCount[r][b] = 0
						return true
					}
				} else {
					cc.noteReady(at)
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
		if at := cc.ch.PreReadyAt(mem, r, b); at <= mem {
			if err := cc.ch.Precharge(mem, r, b); err == nil {
				cc.hitCount[r][b] = 0
				return true
			}
		} else {
			cc.noteReady(at)
		}
		return false
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

// tryColumn issues the first ready column command for a covered open-row
// request, honoring the open-row access cap.
func (cc *chanCtl) tryColumn(mem int64, q *[]*request) bool {
	if cc.ch.OpenBankCount() == 0 {
		return false // no open rows, so no column command can be legal
	}
	geom := cc.cfg.Geom
	burst := cc.cfg.Scheme.burstCycles(cc.cfg.Timing.TBURST)
	if len(*q) < geom.Ranks*geom.Banks {
		// Short queue: one OpenRow per request beats snapshotting every
		// bank (the common case — queues are near-empty most cycles).
		for i, req := range *q {
			l := req.loc
			if cc.refPending[l.Rank] {
				continue
			}
			row, mask, open := cc.ch.OpenRow(l.Rank, l.Bank)
			if !open || row != l.Row {
				continue
			}
			if cc.issueColumn(mem, q, i, req, mask, burst) {
				return true
			}
		}
		return false
	}
	// Deep queue: hoist open-row state, one snapshot instead of
	// per-request lookups.
	var openRows [64]int32 // row or -1; geometry is validated <= 64 banks
	for r := 0; r < geom.Ranks; r++ {
		for b := 0; b < geom.Banks; b++ {
			if row, _, open := cc.ch.OpenRow(r, b); open {
				openRows[r*geom.Banks+b] = int32(row)
			} else {
				openRows[r*geom.Banks+b] = -1
			}
		}
	}
	for i, req := range *q {
		l := req.loc
		if openRows[l.Rank*geom.Banks+l.Bank] != int32(l.Row) || cc.refPending[l.Rank] {
			continue
		}
		_, mask, _ := cc.ch.OpenRow(l.Rank, l.Bank)
		if cc.issueColumn(mem, q, i, req, mask, burst) {
			return true
		}
	}
	return false
}

// issueColumn attempts the column command for request i of q, whose bank
// holds its row open under mask. Reports whether a command issued; both
// tryColumn scan paths funnel through here so their decisions are
// identical by construction.
func (cc *chanCtl) issueColumn(mem int64, q *[]*request, i int, req *request, mask core.Mask, burst int) bool {
	l := req.loc
	if core.ClassifyAccess(true, true, mask, req.kind, req.need()) != core.Hit {
		return false
	}
	if cc.hitCount[l.Rank][l.Bank] >= cc.cfg.MaxRowHits {
		return false
	}
	autoPre := cc.autoPrecharge(req, mask)
	var terms dram.LatTerms
	if req.kind == core.Read {
		if at := cc.ch.ReadLatTerms(mem, l.Rank, l.Bank, burst, &terms); at > mem {
			cc.noteReady(at)
			return false
		}
		done, err := cc.ch.Read(mem, l.Rank, l.Bank, burst, cc.cfg.Scheme.ioFrac(), autoPre)
		if err != nil {
			return false
		}
		cc.finishColumn(q, i, req, autoPre)
		cc.stats.ReadLatencySum += done - req.arrive
		cc.sweepWait(req, mem, &terms)
		cc.completeLat(req, mem, done)
		req.done.Fn(done * cc.cfg.CPUPerMem)
	} else {
		if at := cc.ch.WriteLatTerms(mem, l.Rank, l.Bank, burst, &terms); at > mem {
			cc.noteReady(at)
			return false
		}
		end, err := cc.ch.Write(mem, l.Rank, l.Bank, burst, cc.writeFrac(req), autoPre)
		if err != nil {
			return false
		}
		cc.finishColumn(q, i, req, autoPre)
		cc.stats.WriteLatencySum += end - req.arrive
		cc.sweepWait(req, mem, &terms)
		cc.completeLat(req, mem, end)
	}
	cc.releaseReq(req)
	return true
}

// finishColumn updates hit accounting and removes the request from its
// queue.
func (cc *chanCtl) finishColumn(q *[]*request, i int, req *request, autoPre bool) {
	l := req.loc
	if autoPre {
		cc.hitCount[l.Rank][l.Bank] = 0
	} else {
		cc.hitCount[l.Rank][l.Bank]++
	}
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
	s := *q
	copy(s[i:], s[i+1:])
	*q = s[:len(s)-1]
	cc.noteRemove(req)
}

// autoPrecharge decides whether a column access should close the row:
// always under the restricted policy; under the relaxed policy only when
// no queued request would hit the (possibly partial) open row within the
// access cap.
func (cc *chanCtl) autoPrecharge(req *request, openMask core.Mask) bool {
	if cc.cfg.Policy == RestrictedClose {
		return true
	}
	l := req.loc
	if cc.hitCount[l.Rank][l.Bank]+1 >= cc.cfg.MaxRowHits {
		return true
	}
	if cc.cfg.Policy == OpenPage {
		return false // rows stay open until a conflict or the hit cap
	}
	// req itself is still queued, so a count of 1 means nobody else.
	if cc.rowCount.get(req.rowKey) <= 1 {
		return true
	}
	if openMask.IsFull() {
		return false // any same-row request hits a full row
	}
	for _, q := range [2][]*request{cc.readQ, cc.writeQ} {
		for _, o := range q {
			if o == req || o.rowKey != req.rowKey {
				continue
			}
			if core.ClassifyAccess(true, true, openMask, o.kind, o.need()) == core.Hit {
				return false
			}
		}
	}
	return true
}

// actMask computes the activation mask for a request (Section 5.2.1: PRA
// masks of queued same-row writes are ORed; a queued same-row read forces
// a full activation).
func (cc *chanCtl) actMask(req *request) core.Mask {
	if !cc.cfg.Scheme.praWrites() || req.kind == core.Read {
		return core.FullMask
	}
	if cc.rowCount.get(req.rowKey) <= 1 {
		return req.need() // no other queued request shares the row
	}
	m := req.need()
	for _, o := range cc.writeQ {
		if o.rowKey == req.rowKey {
			m = m.Union(o.need())
		}
	}
	for _, o := range cc.readQ {
		if o.rowKey == req.rowKey {
			return core.FullMask
		}
	}
	return m
}

// tryPrep progresses the oldest request that needs an ACT or PRE. Only the
// oldest request per bank matters (FCFS within a bank), so each bank is
// examined once per scan.
func (cc *chanCtl) tryPrep(mem int64, q *[]*request) bool {
	half := cc.cfg.Scheme.halfDRAMOrg()
	var visited uint64
	for _, req := range *q {
		l := req.loc
		if cc.refPending[l.Rank] {
			continue
		}
		row, mask, open := cc.ch.OpenRow(l.Rank, l.Bank)
		// False-hit accounting happens for every queued request that
		// observes the partially open row, even while older same-bank
		// requests are still in line (Section 5.2.1): in a conventional
		// DRAM this request would have hit the open row.
		if open && row == l.Row && !req.falseHit &&
			core.ClassifyAccess(true, true, mask, req.kind, req.need()) == core.FalseHit {
			req.falseHit = true
			if req.kind == core.Read {
				cc.stats.FalseHitRead++
			} else {
				cc.stats.FalseHitWrite++
			}
		}
		bankBit := uint64(1) << uint(l.Rank*cc.cfg.Geom.Banks+l.Bank)
		if visited&bankBit != 0 {
			continue
		}
		visited |= bankBit
		if !open {
			m := cc.actMask(req)
			var terms dram.LatTerms
			if at := cc.ch.ActLatTerms(mem, l.Rank, l.Bank, m, half, &terms); at > mem {
				cc.noteReady(at)
				continue
			}
			if err := cc.ch.Activate(mem, l.Rank, l.Bank, l.Row, m, half); err != nil {
				continue
			}
			cc.hitCount[l.Rank][l.Bank] = 0
			req.activated = true
			cc.sweepWait(req, mem, &terms)
			if req.kind == core.Read {
				cc.stats.ActsForReads++
			} else {
				cc.stats.ActsForWrites++
			}
			cc.mitOnAct(mem, l)
			return true
		}
		sameRow := row == l.Row
		outcome := core.ClassifyAccess(true, sameRow, mask, req.kind, req.need())
		if outcome == core.Hit && cc.hitCount[l.Rank][l.Bank] < cc.cfg.MaxRowHits {
			continue // waiting for the column path; nothing to prep
		}
		if cc.rowBenefits(l.Rank, l.Bank, row, mask) {
			// Another queued request will hit the open row: let it drain
			// before conflicting it away (bounded by the row-hit cap), so
			// read/write phase switches do not waste fresh activations.
			continue
		}
		if at := cc.ch.PreReadyAt(mem, l.Rank, l.Bank); at <= mem {
			if err := cc.ch.Precharge(mem, l.Rank, l.Bank); err == nil {
				cc.hitCount[l.Rank][l.Bank] = 0
				return true
			}
		} else {
			cc.noteReady(at)
		}
	}
	return false
}

// idleManage closes rows no queued request benefits from and power-downs
// idle ranks (relaxed close-page with precharge power-down). Reports
// whether a precharge command was issued.
func (cc *chanCtl) idleManage(mem int64) bool {
	geom := cc.cfg.Geom
	if cc.ch.OpenBankCount() > 0 && cc.cfg.Policy != OpenPage {
		for r := 0; r < geom.Ranks; r++ {
			if !cc.ch.AnyBankOpen(r) {
				continue // skip the bank walk for fully closed ranks
			}
			for b := 0; b < geom.Banks; b++ {
				row, mask, open := cc.ch.OpenRow(r, b)
				if !open {
					continue
				}
				if cc.rowBenefits(r, b, row, mask) {
					continue
				}
				if at := cc.ch.PreReadyAt(mem, r, b); at <= mem {
					if err := cc.ch.Precharge(mem, r, b); err == nil {
						cc.hitCount[r][b] = 0
						return true
					}
				} else {
					cc.noteReady(at)
				}
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
		if len(cc.readQ) == 0 && len(cc.writeQ) == 0 {
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

// rowBenefits reports whether any queued request would hit the open row.
func (cc *chanCtl) rowBenefits(rank, bank, row int, mask core.Mask) bool {
	if cc.hitCount[rank][bank] >= cc.cfg.MaxRowHits {
		return false
	}
	key := cc.am.RowKeyOf(Loc{Channel: cc.idx, Rank: rank, Bank: bank, Row: row})
	if cc.rowCount.get(key) == 0 {
		return false
	}
	if mask.IsFull() {
		return true
	}
	for _, q := range [2][]*request{cc.readQ, cc.writeQ} {
		for _, o := range q {
			if o.rowKey != key {
				continue
			}
			if core.ClassifyAccess(true, true, mask, o.kind, o.need()) == core.Hit {
				return true
			}
		}
	}
	return false
}

func (cc *chanCtl) rankHasWork(rank int) bool { return cc.rankCount[rank] > 0 }
