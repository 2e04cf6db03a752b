package memctrl

import (
	"fmt"
	"math/big"

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
}

// CPUClockGHz is the core clock (Table 3), and CPUCycleNs one of its cycles.
const CPUClockGHz, CPUCycleNs = 3.2, 1 / CPUClockGHz

// crossing is the exact ratio p/q, reduced, of CPU cycles to memory cycles
// (4/1 at DDR3-1600, 24/7 at DDR3-1866): the cores' clock over the command
// clock, half of Timing.Rate. It is the one place the two clocks meet.
type crossing struct{ p, q int64 }

func crossingOf(r dram.Rate) crossing {
	x := big.NewRat(int64(2000*CPUClockGHz)*r.Den, r.Num)
	return crossing{x.Num().Int64(), x.Denom().Int64()}
}

// CPUAt is the CPU cycle memory cycle m starts at, ⌈m·p/q⌉. Validate keeps
// p under 2²³, so m·p cannot overflow below 2³⁹ memory cycles (minutes of
// simulated time); a wake past that is core.FarFuture.
func (x crossing) CPUAt(m int64) int64 {
	if m >= core.FarFuture>>23 {
		return core.FarFuture
	}
	return (m*x.p + x.q - 1) / x.q
}

// MemAt is the last memory cycle started by CPU cycle c ≥ 0, ⌊c·q/p⌋.
func (x crossing) MemAt(c int64) int64 { return c * x.q / x.p }

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
	case c.Timing.Rate.Num > 2000*CPUClockGHz*c.Timing.Rate.Den || c.Timing.Rate.Den > 1000:
		return fmt.Errorf("memctrl: Timing.Rate %d/%d MT/s: the command clock may not outrun the %g GHz cores, and is stated to 1/1000 MT/s", c.Timing.Rate.Num, c.Timing.Rate.Den, CPUClockGHz)
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

// writeMask projects a write's dirty bytes onto the mask it needs open,
// which depends on the scheme: PRA selects MAT groups (words), SDS selects
// chips (byte positions).
func (c *Config) writeMask(b core.ByteMask) core.Mask {
	if c.Scheme.chipMasks() {
		return b.ChipMask()
	}
	return b.WordMask()
}

// Stats aggregates controller-level counters. A Controller keeps one,
// and every channel counts into it.
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

// Controller is the full multi-channel memory controller. It implements
// the cache.Backend contract in the CPU clock domain and steps the DRAM
// channels in the memory clock domain.
type Controller struct {
	cfg   Config
	am    *AddressMapper
	chans []*chanCtl

	lastMem int64
	// The crossing's CPUAt and MemAt are the Controller's; nextMemAt is the
	// CPU cycle of the next DRAM tick, CPUAt(lastMem+1), for Tick's compare.
	crossing
	nextMemAt int64

	// minWake is the NextEvent cache: the CPU cycle the earliest channel
	// nextWake starts at (0 while some channel is disarmed), set by every
	// DRAM tick and zeroed by enqueues. NextEvent is on the run loop's
	// per-executed-cycle path, so it must not walk the channels or divide.
	minWake int64

	// stats and dev are the system totals: every channel's chanCtl and
	// dram.Channel count into them. Energy stays per channel, because the
	// results hold each accumulator's float sums added in channel order;
	// so does the sampled latency state (latHistBank, spans).
	stats Stats
	dev   dram.Stats
}

// New builds a controller; each channel gets its own power accumulator
// and counts into the controller's stats and dev.
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
	c := &Controller{cfg: cfg, am: am, lastMem: -1, crossing: crossingOf(cfg.Timing.Rate)}
	for i := 0; i < cfg.Channels; i++ {
		acc := power.NewAccumulator()
		ch, err := dram.NewChannel(cfg.Timing, cfg.Geom, acc)
		if err != nil {
			return nil, err
		}
		ch.NoWeightedFAW = cfg.NoTimingRelax
		ch.SlowExitPD = cfg.PDSlowExit
		if cfg.MitThreshold > 0 {
			ch.TrackRows()
		}
		ch.RefMode = cfg.RefreshMode
		ch.Stats = &c.dev
		acc.LinearActScale = cfg.Scheme == SDS
		if cfg.ECC {
			acc.ECCChips = 1
		}
		cc := &chanCtl{cfg: &c.cfg, clk: c.crossing, ch: ch, acc: acc, am: am, idx: i, stats: &c.stats}
		cc.banks = make([]bankQ, cfg.Geom.Ranks*cfg.Geom.Banks)
		cc.rankBanks = make([]uint64, cfg.Geom.Ranks)
		for bi := range cc.banks {
			cc.banks[bi].rank, cc.banks[bi].bank = bi/cfg.Geom.Banks, bi%cfg.Geom.Banks
			cc.rankBanks[bi/cfg.Geom.Banks] |= 1 << uint(bi)
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
	req := cc.allocReq(core.Read, l, c.lastMem+1)
	req.wordMask = core.FullMask
	req.done = done // invoked with the CPU cycle: call sites convert through clk
	cc.nextWake, c.minWake = 0, 0
	// Forward from the write queue: the queued write to the line has the data.
	if cc.queuedWrite(l) != nil {
		cc.forwards = append(cc.forwards, req)
		cc.stats.Forwarded++
		return true
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
	if w := cc.queuedWrite(l); w != nil {
		// A merge grows need(): what the open mask covers, the activation
		// mask and the false-hit classes all change, so a command can
		// become legal before the channel's armed wake.
		w.byteMask |= mask
		w.wordMask = c.cfg.writeMask(w.byteMask)
		cc.stale |= 1 << uint(cc.bankOf(l))
	} else {
		if cc.n[core.Write] >= c.cfg.WriteQ {
			cc.stats.WriteRejects++
			return false
		}
		req := cc.allocReq(core.Write, l, c.lastMem+1)
		req.byteMask = mask
		req.wordMask = c.cfg.writeMask(mask)
		cc.push(req)
	}
	cc.nextWake, c.minWake = 0, 0
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
	switch {
	case !write && cc.n[core.Read] >= c.cfg.ReadQ:
		cc.stats.ReadRejects += n
	case write && cc.n[core.Write] >= c.cfg.WriteQ && cc.queuedWrite(l) == nil:
		cc.stats.WriteRejects += n
	default:
		return false
	}
	return true
}

// ResetStats zeroes all counters and accumulated energy; queued requests
// and device state are untouched. Used to exclude warmup from measurement.
func (c *Controller) ResetStats() {
	c.stats = Stats{}
	for _, cc := range c.chans {
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
// at nextMemAt, the CPU cycle the next memory cycle starts at, so between
// DRAM ticks the call is two compares. A caller that fast-forwarded past
// nextMemAt without SkipTo is resynchronized here (the overshoot is only
// legal when every skipped DRAM tick was a provable no-op, which is what
// NextEvent guarantees).
func (c *Controller) Tick(cpu int64) {
	if cpu > c.nextMemAt {
		c.SkipTo(cpu)
	}
	if cpu != c.nextMemAt {
		return
	}
	mem := c.lastMem + 1
	c.lastMem = mem
	c.nextMemAt = c.CPUAt(mem + 1)
	for _, cc := range c.chans {
		cc.tick(mem)
	}
	c.settleWake()
}

// settleWake refreshes the NextEvent cache: minWake is the CPU cycle the
// earliest of the channels' nextWake starts at. Pending forwards need no
// term of their own: only an enqueue adds one, and it disarms its
// channel's wake (0) until the next DRAM tick completes them.
func (c *Controller) settleWake() {
	w := int64(core.FarFuture)
	for _, cc := range c.chans {
		w = min(w, cc.nextWake)
	}
	c.minWake = c.CPUAt(w)
}

// SkipTo realigns the DRAM clock after the run loop jumps the CPU cycle to
// target (the next cycle it will execute). It restores the invariant
// per-cycle ticking maintains — lastMem is the DRAM cycle of the last tick at
// or before the previous CPU cycle — so request arrival stamps taken between
// DRAM ticks (lastMem+1) match the unskipped run exactly. Time only moves
// forward, so a target at or before nextMemAt needs no change (or division).
func (c *Controller) SkipTo(target int64) {
	if target <= c.nextMemAt {
		return
	}
	c.lastMem = c.MemAt(target - 1)
	c.nextMemAt = c.CPUAt(c.lastMem + 1)
}

// MemCycle returns the DRAM cycle of the most recent DRAM tick (-1 before the
// first): MemAt(cpu) after Tick(cpu). Exposed for the tests.
func (c *Controller) MemCycle() int64 { return c.lastMem }

// NextEvent reports the earliest CPU cycle at which the controller can do
// observable work, assuming nothing new is enqueued before then: the
// earliest channel wake-up converted to the CPU clock, and no earlier than
// the next DRAM tick (a disarmed wake, 0, means that tick). Skipped cycles
// in between are exactly the ticks that per-cycle operation would spend in
// the "mem < nextWake" sleep path, whose only effect — lazy
// background-energy accrual — is caught up jump-exactly by
// AdvanceTo/CatchUp.
func (c *Controller) NextEvent(now int64) int64 { return max(c.minWake, c.nextMemAt) }

// CatchUp brings the lazy per-channel background-energy accounting to the
// point per-cycle ticking would have reached just before CPU cycle cpu —
// through the last DRAM tick at or before cpu-1. The run loop calls it
// before reading energy or rank-state cycle counters (epoch samples,
// end-of-run results) so fast-forwarding never leaves them stale; under
// per-cycle ticking it is a no-op.
func (c *Controller) CatchUp(cpu int64) {
	mem := c.MemAt(cpu - 1)
	for _, cc := range c.chans {
		cc.ch.AdvanceTo(mem)
	}
}

// Stats returns the controller statistics, totalled over the channels.
func (c *Controller) Stats() Stats { return c.stats }

// DeviceStats returns the DRAM event statistics, totalled over the
// channels. As a probe it flushes pending background spans first, so the
// rank-cycle counters are current through the last clocked cycle.
func (c *Controller) DeviceStats() dram.Stats {
	for _, cc := range c.chans {
		cc.ch.FlushBackground()
	}
	return c.dev
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

// chanCtl is one channel's controller: four engines, each with its own file
// and state, composed into one scheduling pass per DRAM tick (tick).
type chanCtl struct {
	cfg *Config
	ch  *dram.Channel
	acc *power.Accumulator
	am  *AddressMapper
	idx int // channel index

	requestEngine    // sched.go: FR-FCFS queues, bank index, write drain
	refreshEngine    // refresh.go: REF / REFpb / elastic postpone and pull-in
	lowPowerEngine   // lowpower.go: power-down and self-refresh entry, wakes
	mitigationEngine // mitigation.go: Alert back-off and RFM

	// bound[e] is the earliest future readiness engine e noted in the
	// current pass (noteReady books into *running, the running engine's);
	// when the pass issues nothing, their minimum is the channel's wake-up.
	bound   [numEngines]int64
	running *int64

	// nextWake is the channel's one statement of when a scheduling pass
	// runs: a pass before it would be a no-op (the golden tests' every-tick
	// oracle holds every cell to that), so ticks until then only accrue
	// background energy. It is re-armed whenever a pass issues nothing and
	// disarmed (0) on every enqueue or issued command.
	nextWake int64

	// ev/scope are the structured event hook (nil/"" when tracing is off);
	// see AttachObs. Every emission site guards with tracing(), which is
	// nil-safe, so the disabled cost is one pointer check.
	ev    *obs.EventLog
	scope string

	// Latency attribution (latency.go, LatBreak only): per-bank read
	// latency histograms indexed rank*Banks+bank, and the sampled-span
	// ring. Measurement-scoped like Stats — cleared by ResetStats, never
	// checkpointed (checkpoints are taken right after ResetStats, when all
	// of this is empty in monolithic and restored runs alike).
	latHistBank []stats.LogHist
	spans       []LatSpan
	spanHead    int
	spanSeq     int64

	stats *Stats   // the controller's totals
	clk   crossing // the controller's, for the CPU cycle a read completes at
}

// engine names one of a channel's four engines, in the order minBound
// breaks ties.
type engine uint8

const (
	engRequests engine = iota
	engRefresh
	engLowPower
	engMitigation
	numEngines
)

// noteReady records a future readiness time observed during a scheduling
// pass in the running engine's bound.
func (cc *chanCtl) noteReady(at int64) {
	if at < *cc.running {
		*cc.running = at
	}
}

// run hands the pass to engine e: noteReady books into e's bound.
func (cc *chanCtl) run(e engine) { cc.running = &cc.bound[e] }

// reached reports whether at <= mem, noting at otherwise: the shape of
// every "legal yet?" check in a pass.
func (cc *chanCtl) reached(mem, at int64) bool {
	if at > mem {
		cc.noteReady(at)
		return false
	}
	return true
}

// minBound returns the earliest of the engines' bounds and the engine that
// set it (the first in engine order on a tie).
func (cc *chanCtl) minBound() (int64, engine) {
	at, e := min(cc.bound[0], cc.bound[1], cc.bound[2], cc.bound[3]), engRequests
	for cc.bound[e] != at {
		e++
	}
	return at, e
}

// tracing reports whether state events are recorded. Every emit call site
// is guarded by it, so with tracing off nothing is formatted or allocated.
func (cc *chanCtl) tracing() bool { return cc.ev.Enabled(obs.LevelState) }

// emit records a LevelState event.
func (cc *chanCtl) emit(mem int64, kind, format string, args ...any) {
	cc.ev.Emit(obs.Event{Cycle: mem, Level: obs.LevelState, Scope: cc.scope,
		Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// precharge closes bank (r, b) if a PRE is legal at mem and reports
// whether it issued; otherwise it notes when the PRE becomes legal. It is
// the one place a PRE issues, for whichever engine asked for it.
func (cc *chanCtl) precharge(mem int64, r, b int) bool {
	if !cc.reached(mem, cc.ch.PreReadyAt(mem, r, b)) || cc.ch.Precharge(mem, r, b) != nil {
		return false
	}
	cc.closeRow(cc.bankOf(Loc{Rank: r, Bank: b}))
	return true
}

// closeThen is the shape REF, REFpb and RFM share: precharge an open bank
// of rank r among [b0, b1) (one PRE per pass), and once all are closed
// issue the command the cycle ready says it is legal. It reports whether
// the command slot was taken, and whether by the command itself.
func (cc *chanCtl) closeThen(mem int64, r, b0, b1 int,
	ready func(int64, int) (int64, bool), issue func(int64, int) error) (slot, cmd bool) {
	closed := true
	for b := b0; b < b1; b++ {
		if _, _, open := cc.ch.OpenRow(r, b); open {
			if cc.precharge(mem, r, b) {
				return true, false
			}
			closed = false
		}
	}
	if closed {
		at, ok := ready(mem, r)
		cmd = ok && cc.reached(mem, at) && issue(mem, r) == nil
	}
	return cmd, cmd
}

// tick runs one DRAM cycle of the channel: the forwards complete and,
// unless the channel sleeps, one scheduling pass runs the engines in
// priority order until one issues a command. A pass that issues nothing
// sleeps the channel until the earliest of the engines' bounds.
func (cc *chanCtl) tick(mem int64) {
	cc.ch.Clock(mem)
	if len(cc.forwards) > 0 {
		cc.completeForwards(mem)
	}
	// Nothing can become issueable before nextWake (it is cleared on every
	// enqueue and issued command); skip the scheduling pass until then.
	if mem < cc.nextWake {
		return
	}
	cc.bound = [numEngines]int64{core.FarFuture, core.FarFuture, core.FarFuture, core.FarFuture}
	cc.wakeRanks(mem)
	cc.updateDrain(mem)
	// Refresh goes first; a raised alert (mitigation.go) then stalls
	// everything but refresh — refresh keeps priority so mitigation can
	// never starve the retention deadline — until its RFM has issued.
	if cc.issueRefresh(mem) || cc.rfmPending && cc.issueRFM(mem) ||
		!cc.rfmPending && (cc.serveRequests(mem) || cc.manageRanks(mem)) {
		cc.nextWake = 0
		return
	}
	cc.bound[engRefresh] = min(cc.bound[engRefresh], cc.refreshHorizon())
	wake, _ := cc.minBound()
	cc.nextWake = max(wake, mem+1)
}
