package dram

import (
	"fmt"

	"pradram/internal/core"
	"pradram/internal/power"
)

// BusDir is the direction of the last data-bus transfer, used to charge the
// rank-to-rank / turnaround gap.
type BusDir uint8

// The data-bus directions.
const (
	BusIdle  BusDir = iota // no transfer yet
	BusRead                // last transfer drove read data
	BusWrite               // last transfer drove write data
)

type bankState struct {
	open bool
	row  int
	mask core.Mask

	actAllowed int64 // earliest next ACT (tRC same bank, tRP after PRE)
	rdAllowed  int64 // earliest column read (tRCD, +1 for partial ACT)
	wrAllowed  int64 // earliest column write
	preAllowed int64 // earliest PRE (tRAS, tRTP, write recovery)
}

type fawEntry struct {
	t int64
	w float64
}

type rankState struct {
	banks []bankState

	rrdAllowed  int64 // weighted tRRD from the last ACT in this rank
	colAllowed  int64 // tCCD across the rank's shared column path
	rdAfterWr   int64 // tWTR: write burst end to next read command
	faw         []fawEntry
	refUntil    int64 // end of an in-flight refresh
	nextRefresh int64 // next external refresh deadline (suspended in self-refresh)
	refBank     int   // next REFpb target bank (per-bank refresh round-robin)
	pd          PDState
	pdEnteredAt int64 // cycle the current power-down state was entered
	pdExit      int64 // power-down exit: no command before this cycle (tXP/tXPDLL/tXS)
	pdReady     int64 // earliest next power-down entry (tCKE after the last wake)
	openCount   int

	// bgFrom is the first cycle whose background energy has not been
	// accrued yet. Background accounting is lazy: spans of constant rank
	// state are charged in one multiply when the state changes (any
	// command that touches pd/openCount/refUntil) or when a probe
	// flushes (AdvanceTo). Span boundaries are command and probe
	// cycles only — never tick cycles — so per-cycle and fast-forwarded
	// operation produce bit-identical energy sums.
	bgFrom int64
}

// Stats counts device-level events for the experiment harness.
type Stats struct {
	// ActsByGranularity[g] counts activations that opened g/8 of a row,
	// g = 1..8. Index 0 is unused.
	ActsByGranularity [9]int64
	Reads             int64
	Writes            int64
	Precharges        int64
	// Refreshes counts all-bank REF commands; PerBankRefreshes counts
	// REFpb commands (per-bank refresh mode).
	Refreshes        int64
	PerBankRefreshes int64
	// PostponedRefreshes counts refreshes issued at least one full
	// interval past their nominal deadline (debt >= 2 intervals at issue);
	// PulledInRefreshes counts refreshes issued ahead of their deadline.
	// Both stay within the JEDEC 8x tREFI elasticity window.
	PostponedRefreshes int64
	PulledInRefreshes  int64
	// SelfRefEntries counts transitions into self-refresh.
	SelfRefEntries int64
	// PowerDownCycles counts fast-exit precharge power-down rank-cycles
	// (the only power-down state of the pre-FSM simulator; the name is
	// kept for report compatibility).
	PowerDownCycles int64
	// ActivePDCycles, SlowPDCycles, and SelfRefCycles count rank-cycles in
	// active power-down, slow-exit precharge power-down, and self-refresh.
	ActivePDCycles int64
	SlowPDCycles   int64
	SelfRefCycles  int64
	// Rank-state occupancy in rank-cycles (one count per rank per memory
	// cycle): together with the four power-down counters above they
	// partition total rank-cycles and feed the analytic power
	// calculator's background fractions.
	ActiveRankCycles     int64
	PrechargedRankCycles int64
	// WordsWritten / WordBudget track the write I/O utilization: words
	// actually driven on the bus vs words a conventional system would
	// drive (8 per write).
	WordsWritten int64
	WordBudget   int64
	// RFMs counts Refresh Management commands (rowcounter.go); RowSpills
	// counts activations the bounded per-row counter table absorbed into
	// its spill floor instead of tracking exactly.
	RFMs      int64
	RowSpills int64
}

// Activations returns the total number of row activations.
func (s Stats) Activations() int64 {
	var n int64
	for _, c := range s.ActsByGranularity {
		n += c
	}
	return n
}

// LowPowerCycles returns the rank-cycles spent with CKE low, summed over
// all four power-down states.
func (s Stats) LowPowerCycles() int64 {
	return s.PowerDownCycles + s.ActivePDCycles + s.SlowPDCycles + s.SelfRefCycles
}

// TotalRankCycles returns the rank-cycle occupancy total across every
// background state (the denominator for residency fractions).
func (s Stats) TotalRankCycles() int64 {
	return s.ActiveRankCycles + s.PrechargedRankCycles + s.LowPowerCycles()
}

// AvgGranularity returns the average activation granularity in eighths
// (8.0 means every activation was a full row).
func (s Stats) AvgGranularity() float64 {
	var n, sum int64
	for g, c := range s.ActsByGranularity {
		n += c
		sum += int64(g) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// BankCount is the always-on per-bank command tally the telemetry layer
// samples. It lives outside Stats so Result snapshots (and the disk-cache
// JSON) are unaffected; maintaining it costs one increment per command.
type BankCount struct {
	Act, Pre, Rd, Wr int64
}

// Channel is one DDR3 channel: command/address bus, data bus, and a set of
// ranks of banks. All methods take the current absolute memory cycle.
type Channel struct {
	T Timing
	G Geometry

	// Acc receives the energy of every event on this channel. Never nil.
	Acc *power.Accumulator

	// NoWeightedFAW disables the partial-activation tRRD/tFAW relaxation
	// (every ACT charges weight 1.0) — an ablation knob for quantifying
	// how much of PRA's behaviour comes from the relaxed timing
	// constraints of Section 4.1.3.
	NoWeightedFAW bool

	// SlowExitPD makes EnterPowerDown use the slow-exit (DLL-off)
	// precharge power-down state: lower standby power, tXPDLL exit.
	SlowExitPD bool

	// RefMode selects the refresh discipline (all-bank vs per-bank).
	RefMode RefreshMode

	// MaxPostpone is how many refresh intervals a refresh may be postponed
	// or pulled in (the JEDEC DDR3 elasticity is 8). 0 disables both:
	// refreshes are due exactly at their nominal deadline, as in the
	// pre-FSM simulator.
	MaxPostpone int

	// Trace, when non-nil, receives every issued command in issue order
	// (see CmdEvent). Used for command-level debugging, golden-trace
	// tests, and the global bus-occupancy invariant checks.
	Trace func(CmdEvent)

	ranks   []rankState
	cmdFree int64 // next cycle the command/address bus is free

	busFree int64 // first cycle the data bus is free
	busDir  BusDir
	busRank int

	acctUpTo int64 // background energy accounted up to this cycle

	perBank []BankCount // indexed rank*Banks+bank

	// rowCtr is the optional per-row activation counter table set
	// (rowcounter.go); nil unless TrackRows enabled it. Counter contents
	// are simulation state: they survive ResetStats and are checkpointed.
	rowCtr *rowCounters

	Stats Stats
}

// NewChannel builds a channel with validated parameters. The accumulator's
// chip counts are aligned with the geometry.
func NewChannel(t Timing, g Geometry, acc *power.Accumulator) (*Channel, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if acc == nil {
		acc = power.NewAccumulator()
	}
	acc.ChipsPerRank = g.ChipsPerRank
	acc.OtherRanks = g.Ranks - 1
	ch := &Channel{
		T: t, G: g, Acc: acc,
		ranks:   make([]rankState, g.Ranks),
		perBank: make([]BankCount, g.Ranks*g.Banks),
	}
	for r := range ch.ranks {
		ch.ranks[r].banks = make([]bankState, g.Banks)
		// Stagger refreshes across ranks to avoid lockstep stalls.
		ch.ranks[r].nextRefresh = int64(t.TREFI) * int64(r+1) / int64(g.Ranks)
	}
	return ch, nil
}

func (c *Channel) rank(r int) *rankState { return &c.ranks[r] }

func (c *Channel) bank(r, b int) *bankState { return &c.ranks[r].banks[b] }

// OpenRow reports the open row and PRA mask of a bank.
func (c *Channel) OpenRow(r, b int) (row int, mask core.Mask, open bool) {
	bk := c.bank(r, b)
	return bk.row, bk.mask, bk.open
}

// AnyBankOpen reports whether any bank in rank r holds an open row.
func (c *Channel) AnyBankOpen(r int) bool { return c.rank(r).openCount > 0 }

// OpenBankCount returns the number of open banks across all ranks.
func (c *Channel) OpenBankCount() int {
	n := 0
	for r := range c.ranks {
		n += c.ranks[r].openCount
	}
	return n
}

// ResetStats zeroes the event counters (energy is reset via the
// accumulator). Used to exclude warmup from measurements. Pending
// background spans are flushed first so they land in the discarded
// pre-reset tallies, not the fresh ones.
func (c *Channel) ResetStats() {
	c.FlushBackground()
	c.Stats = Stats{}
	for i := range c.perBank {
		c.perBank[i] = BankCount{}
	}
}

// BankCounts returns the per-bank command tally of bank (r,b).
func (c *Channel) BankCounts(r, b int) BankCount { return c.perBank[r*c.G.Banks+b] }

// Clock advances the channel's accounting clock without accruing anything;
// background spans stay pending until the next state change or flush. The
// controller calls it at the top of every memory tick, so commands always
// execute with acctUpTo == the current cycle.
func (c *Channel) Clock(cycle int64) {
	if cycle > c.acctUpTo {
		c.acctUpTo = cycle
	}
}

// AdvanceTo advances the accounting clock to cycle and flushes all pending
// background spans — the probe entry point: callers about to read energy or
// rank-state cycle counters use it to bring both up to (but not including)
// cycle.
func (c *Channel) AdvanceTo(cycle int64) {
	c.Clock(cycle)
	c.FlushBackground()
}

// FlushBackground accrues every rank's pending background span up to the
// accounting clock.
func (c *Channel) FlushBackground() {
	for r := range c.ranks {
		c.flushBG(&c.ranks[r])
	}
}

// flushBG charges rank rk's background energy for [bgFrom, acctUpTo). The
// rank's state over that span is constant except for at most one internal
// boundary — the end of an in-flight refresh — because every mutation of
// poweredDown/openCount/refUntil flushes first. Each constant-state piece
// is charged in a single multiply; the split points are command and probe
// cycles, identical whether the controller ticks every cycle or
// fast-forwards, so the float sums match bit for bit.
func (c *Channel) flushBG(rk *rankState) {
	t, end := rk.bgFrom, c.acctUpTo
	if t >= end {
		return
	}
	rk.bgFrom = end
	tck := c.T.TCKNs
	if rk.refUntil > t {
		stop := min(rk.refUntil, end)
		n := stop - t
		c.Stats.ActiveRankCycles += n
		c.Acc.Background(power.RankActive, tck*float64(n))
		t = stop
	}
	if t >= end {
		return
	}
	n := end - t
	switch {
	case rk.pd == PDPrechargeFast:
		c.Stats.PowerDownCycles += n
		c.Acc.Background(power.RankPoweredDown, tck*float64(n))
	case rk.pd == PDActive:
		c.Stats.ActivePDCycles += n
		c.Acc.Background(power.RankActivePD, tck*float64(n))
	case rk.pd == PDPrechargeSlow:
		c.Stats.SlowPDCycles += n
		c.Acc.Background(power.RankPoweredDownSlow, tck*float64(n))
	case rk.pd == PDSelfRefresh:
		c.Stats.SelfRefCycles += n
		c.Acc.Background(power.RankSelfRefresh, tck*float64(n))
	case rk.openCount > 0:
		c.Stats.ActiveRankCycles += n
		c.Acc.Background(power.RankActive, tck*float64(n))
	default:
		c.Stats.PrechargedRankCycles += n
		c.Acc.Background(power.RankPrecharged, tck*float64(n))
	}
}

// neverRefresh is the refresh-horizon sentinel for ranks that owe no
// external refresh (self-refreshing ranks). Far enough that it never
// constrains a sleep horizon, small enough that adding offsets cannot
// overflow.
const neverRefresh = int64(1) << 62

// NextRefreshAny returns the earliest scheduled refresh deadline across
// all ranks — the channel-level bound the controller folds into its sleep
// horizon (a sleeping channel must still wake to refresh on time).
// Self-refreshing ranks owe no external refresh and are skipped; if every
// rank self-refreshes the result is the neverRefresh sentinel.
func (c *Channel) NextRefreshAny() int64 {
	earliest := neverRefresh
	for r := range c.ranks {
		if c.ranks[r].pd == PDSelfRefresh {
			continue
		}
		if at := c.ranks[r].nextRefresh; at < earliest {
			earliest = at
		}
	}
	return earliest
}

// fawReadyAt returns the earliest cycle an activation of weight w fits the
// weighted four-activation window (sum of in-window weights <= 4).
func (c *Channel) fawReadyAt(rk *rankState, w float64) int64 {
	sum := w
	for _, e := range rk.faw {
		sum += e.w
	}
	const eps = 1e-9
	if sum <= 4+eps {
		return 0
	}
	need := sum - 4
	var at int64
	for _, e := range rk.faw {
		need -= e.w
		at = e.t + int64(c.T.TFAW)
		if need <= eps {
			break
		}
	}
	return at
}

// ActReadyAt returns the earliest cycle >= now at which an ACT of the given
// mask may be issued to bank (r,b). For a rank still in power-down, the
// result assumes a Wake issued at the query time.
func (c *Channel) ActReadyAt(now int64, r, b int, mask core.Mask, halfDRAM bool) int64 {
	var t LatTerms
	return c.ActLatTerms(now, r, b, mask, halfDRAM, &t)
}

// Activate opens (part of) a row. mask selects the MAT groups; FullMask is
// a conventional activation. halfDRAM marks Half-DRAM organizations, which
// halve both the activation energy and the tRRD/tFAW weight.
func (c *Channel) Activate(at int64, r, b, row int, mask core.Mask, halfDRAM bool) error {
	if mask.IsZero() {
		return fmt.Errorf("dram: activation with empty mask on rank %d bank %d", r, b)
	}
	if row < 0 || row >= c.G.Rows {
		return fmt.Errorf("dram: row %d out of range", row)
	}
	rk, bk := c.rank(r), c.bank(r, b)
	if rk.pd != PDAwake {
		return fmt.Errorf("dram: ACT to rank %d in %v (Wake it first)", r, rk.pd)
	}
	if ready := c.ActReadyAt(at, r, b, mask, halfDRAM); at < ready {
		return fmt.Errorf("dram: ACT at %d before ready %d (rank %d bank %d)", at, ready, r, b)
	}
	if bk.open {
		return fmt.Errorf("dram: ACT to open bank %d/%d", r, b)
	}
	w := c.actWeight(mask, halfDRAM)

	c.flushBG(rk)
	bk.open, bk.row, bk.mask = true, row, mask
	bk.actAllowed = at + int64(c.T.TRC)
	colDelay := int64(c.T.TRCD)
	cmdCycles := int64(1)
	if !mask.IsFull() {
		// Partial activation: the mask arrives on the address bus next
		// cycle; the chip starts the activation only then (Fig. 7a).
		colDelay += int64(c.T.PRAMaskCycles)
		cmdCycles += int64(c.T.PRAMaskCycles)
	}
	bk.rdAllowed = at + colDelay
	bk.wrAllowed = at + colDelay
	bk.preAllowed = at + int64(c.T.TRAS)

	rk.rrdAllowed = at + int64(core.ScaledRRD(c.T.TRRD, w))
	// Prune expired window entries, then record this activation.
	keep := rk.faw[:0]
	for _, e := range rk.faw {
		if e.t+int64(c.T.TFAW) > at {
			keep = append(keep, e)
		}
	}
	rk.faw = append(keep, fawEntry{t: at, w: w})
	rk.openCount++
	c.cmdFree = at + cmdCycles

	c.Acc.Activation(mask.Granularity(), halfDRAM, float64(c.T.TRC)*c.T.TCKNs)
	c.Stats.ActsByGranularity[mask.Granularity()]++
	c.perBank[r*c.G.Banks+b].Act++
	c.rowCtrOnAct(r, b, row)
	c.emit(CmdEvent{At: at, Kind: CmdAct, Rank: r, Bank: b, Row: row, Mask: mask})
	return nil
}

// busStart returns the earliest data-bus start for a transfer in direction
// d from rank r, given the command would put data on the bus at wantStart.
func (c *Channel) busStart(wantStart int64, d BusDir, r int) int64 {
	gap := int64(0)
	if c.busDir != BusIdle && (c.busDir != d || c.busRank != r) {
		gap = int64(c.T.TRTRS)
	}
	return max(wantStart, c.busFree+gap)
}

// ReadReadyAt returns the earliest command cycle >= now for a column read
// of burstCycles from bank (r,b).
func (c *Channel) ReadReadyAt(now int64, r, b, burstCycles int) int64 {
	var t LatTerms
	return c.ReadLatTerms(now, r, b, burstCycles, &t)
}

// Read issues a column read; returns the cycle the last data beat arrives.
// autoPre closes the row with an auto-precharge honoring tRTP. frac scales
// the array-read and I/O energy relative to a full-rate burst: FGA drives
// the bus at half rate for twice as long (prefetch broken), so it passes
// burstCycles = 2x base with frac = 0.5 and spends the same energy moving
// the same bits.
func (c *Channel) Read(at int64, r, b, burstCycles int, frac float64, autoPre bool) (done int64, err error) {
	rk, bk := c.rank(r), c.bank(r, b)
	if rk.pd != PDAwake {
		return 0, fmt.Errorf("dram: RD to rank %d in %v (Wake it first)", r, rk.pd)
	}
	if !bk.open {
		return 0, fmt.Errorf("dram: RD to closed bank %d/%d", r, b)
	}
	if ready := c.ReadReadyAt(at, r, b, burstCycles); at < ready {
		return 0, fmt.Errorf("dram: RD at %d before ready %d", at, ready)
	}
	start := at + int64(c.T.TCAS)
	end := start + int64(burstCycles)
	c.busFree, c.busDir, c.busRank = end, BusRead, r
	rk.colAllowed = at + max(int64(c.T.TCCD), int64(burstCycles))
	bk.preAllowed = max(bk.preAllowed, at+int64(c.T.TRTP))
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	c.cmdFree = at + 1
	c.Acc.ReadBurst(float64(burstCycles) * c.T.TCKNs * frac)
	c.Stats.Reads++
	c.perBank[r*c.G.Banks+b].Rd++
	c.emit(CmdEvent{At: at, Kind: CmdRead, Rank: r, Bank: b, Row: bk.row, DataStart: start, DataEnd: end})
	if autoPre {
		c.closeBank(r, b, rk, bk, bk.preAllowed)
	}
	return end, nil
}

// WriteReadyAt returns the earliest command cycle >= now for a column write.
func (c *Channel) WriteReadyAt(now int64, r, b, burstCycles int) int64 {
	var t LatTerms
	return c.WriteLatTerms(now, r, b, burstCycles, &t)
}

// Write issues a column write. frac is the fraction of the line's words
// actually driven (PRA transfers only dirty words). Returns the cycle the
// burst completes on the bus.
func (c *Channel) Write(at int64, r, b, burstCycles int, frac float64, autoPre bool) (done int64, err error) {
	rk, bk := c.rank(r), c.bank(r, b)
	if rk.pd != PDAwake {
		return 0, fmt.Errorf("dram: WR to rank %d in %v (Wake it first)", r, rk.pd)
	}
	if !bk.open {
		return 0, fmt.Errorf("dram: WR to closed bank %d/%d", r, b)
	}
	if ready := c.WriteReadyAt(at, r, b, burstCycles); at < ready {
		return 0, fmt.Errorf("dram: WR at %d before ready %d", at, ready)
	}
	start := at + int64(c.T.CWL)
	end := start + int64(burstCycles)
	c.busFree, c.busDir, c.busRank = end, BusWrite, r
	rk.colAllowed = at + max(int64(c.T.TCCD), int64(burstCycles))
	rk.rdAfterWr = end + int64(c.T.TWTR)
	bk.preAllowed = max(bk.preAllowed, end+int64(c.T.TWR))
	c.cmdFree = at + 1
	c.Acc.WriteBurst(float64(burstCycles)*c.T.TCKNs, frac)
	c.Stats.Writes++
	c.perBank[r*c.G.Banks+b].Wr++
	c.Stats.WordsWritten += int64(frac*float64(core.WordsPerLine) + 0.5)
	c.Stats.WordBudget += core.WordsPerLine
	c.emit(CmdEvent{At: at, Kind: CmdWrite, Rank: r, Bank: b, Row: bk.row, DataStart: start, DataEnd: end})
	if autoPre {
		c.closeBank(r, b, rk, bk, bk.preAllowed)
	}
	return end, nil
}

// PreReadyAt returns the earliest cycle a precharge may be issued. For a
// rank in active power-down, the result assumes a Wake issued at the query
// time.
func (c *Channel) PreReadyAt(now int64, r, b int) int64 {
	rk, bk := c.rank(r), c.bank(r, b)
	return max(now, bk.preAllowed, rk.refUntil, c.cmdFree, c.pdExitAt(rk, now))
}

// Precharge closes the bank's row. The ACT-PRE pair energy was charged at
// activation (the Micron model folds both into P_ACT over tRC).
func (c *Channel) Precharge(at int64, r, b int) error {
	rk, bk := c.rank(r), c.bank(r, b)
	if rk.pd != PDAwake {
		return fmt.Errorf("dram: PRE to rank %d in %v (Wake it first)", r, rk.pd)
	}
	if !bk.open {
		return fmt.Errorf("dram: PRE to closed bank %d/%d", r, b)
	}
	if ready := c.PreReadyAt(at, r, b); at < ready {
		return fmt.Errorf("dram: PRE at %d before ready %d", at, ready)
	}
	c.cmdFree = at + 1
	c.closeBank(r, b, rk, bk, at)
	return nil
}

func (c *Channel) closeBank(r, b int, rk *rankState, bk *bankState, preAt int64) {
	c.flushBG(rk)
	c.emit(CmdEvent{At: preAt, Kind: CmdPre, Rank: r, Bank: b, Row: bk.row})
	bk.open = false
	bk.mask = 0
	bk.actAllowed = max(bk.actAllowed, preAt+int64(c.T.TRP))
	rk.openCount--
	c.Stats.Precharges++
	c.perBank[r*c.G.Banks+b].Pre++
}

// refInterval returns the nominal cycles between refresh commands: tREFI
// for all-bank refresh, tREFI/banks for the per-bank round-robin.
func (c *Channel) refInterval() int64 {
	if c.RefMode == RefPerBank {
		return int64(c.T.TREFI) / int64(c.G.Banks)
	}
	return int64(c.T.TREFI)
}

// postponeWindow returns the refresh elasticity in cycles: how far past
// (or ahead of) its nominal deadline a refresh may issue.
func (c *Channel) postponeWindow() int64 {
	return int64(c.MaxPostpone) * c.refInterval()
}

// RefreshDue reports whether rank r owes a refresh at cycle now. A
// self-refreshing rank never owes an external refresh.
func (c *Channel) RefreshDue(now int64, r int) bool {
	rk := c.rank(r)
	return rk.pd != PDSelfRefresh && rk.nextRefresh <= now
}

// RefreshMust reports whether rank r's refresh can no longer be postponed:
// the nominal deadline plus the full elasticity window has passed. With
// MaxPostpone = 0 it coincides with RefreshDue.
func (c *Channel) RefreshMust(now int64, r int) bool {
	rk := c.rank(r)
	return rk.pd != PDSelfRefresh && rk.nextRefresh+c.postponeWindow() <= now
}

// CanPullIn reports whether rank r may issue a refresh ahead of its
// nominal deadline at cycle now without exceeding the pull-in credit of
// MaxPostpone intervals.
func (c *Channel) CanPullIn(now int64, r int) bool {
	if c.MaxPostpone == 0 {
		return false
	}
	rk := c.rank(r)
	return rk.pd != PDSelfRefresh && rk.nextRefresh-now < c.postponeWindow()
}

// NextRefreshAt returns the cycle rank r's next refresh falls due
// (neverRefresh while the rank self-refreshes).
func (c *Channel) NextRefreshAt(r int) int64 {
	rk := c.rank(r)
	if rk.pd == PDSelfRefresh {
		return neverRefresh
	}
	return rk.nextRefresh
}

// MustRefreshAt returns the cycle rank r's next refresh stops being
// postponable — its hard deadline under the elasticity window.
func (c *Channel) MustRefreshAt(r int) int64 {
	rk := c.rank(r)
	if rk.pd == PDSelfRefresh {
		return neverRefresh
	}
	return rk.nextRefresh + c.postponeWindow()
}

// RefreshReadyAt returns the earliest cycle a REF may be issued to rank r;
// all banks must be precharged first (the controller is responsible for
// closing them). For a rank still in power-down, the result assumes a Wake
// issued at the query time.
func (c *Channel) RefreshReadyAt(now int64, r int) (int64, bool) {
	rk := c.rank(r)
	if rk.openCount > 0 {
		return 0, false
	}
	at := max(now, rk.refUntil, c.cmdFree, c.pdExitAt(rk, now))
	for b := range rk.banks {
		// tRP from the last precharge must have elapsed; actAllowed
		// tracks exactly that for a closed bank.
		at = max(at, rk.banks[b].actAllowed)
	}
	return at, true
}

// refreshElasticity validates a refresh issue cycle against the pull-in
// credit and updates the postpone/pull-in counters.
func (c *Channel) refreshElasticity(at int64, rk *rankState) error {
	if ahead := rk.nextRefresh - at; ahead > 0 {
		if ahead >= c.postponeWindow() {
			return fmt.Errorf("dram: refresh pull-in at %d exceeds the %dx interval credit (deadline %d)",
				at, c.MaxPostpone, rk.nextRefresh)
		}
		c.Stats.PulledInRefreshes++
	} else if at >= rk.nextRefresh+c.refInterval() {
		c.Stats.PostponedRefreshes++
	}
	return nil
}

// Refresh issues an all-bank REF to rank r, blocking it for tRFC. The rank
// must have been woken from power-down first, and all banks precharged.
func (c *Channel) Refresh(at int64, r int) error {
	rk := c.rank(r)
	if rk.pd != PDAwake {
		return fmt.Errorf("dram: REF to rank %d in %v (Wake it first)", r, rk.pd)
	}
	if c.RefMode == RefPerBank {
		return fmt.Errorf("dram: all-bank REF on a per-bank refresh channel (use RefreshBank)")
	}
	ready, ok := c.RefreshReadyAt(at, r)
	if !ok {
		return fmt.Errorf("dram: REF to rank %d with open banks", r)
	}
	if at < ready {
		return fmt.Errorf("dram: REF at %d before ready %d", at, ready)
	}
	if err := c.refreshElasticity(at, rk); err != nil {
		return err
	}
	c.flushBG(rk)
	rk.refUntil = at + int64(c.T.TRFC)
	rk.nextRefresh += c.refInterval()
	for b := range rk.banks {
		rk.banks[b].actAllowed = max(rk.banks[b].actAllowed, rk.refUntil)
	}
	c.cmdFree = at + 1
	c.Acc.Refresh(float64(c.T.TRFC) * c.T.TCKNs)
	c.Stats.Refreshes++
	c.rowCtrResetRank(r)
	c.emit(CmdEvent{At: at, Kind: CmdRef, Rank: r})
	return nil
}

// NextRefreshBank returns the bank a per-bank refresh of rank r targets
// next (the round-robin cursor).
func (c *Channel) NextRefreshBank(r int) int { return c.rank(r).refBank }

// RefreshBankReadyAt returns the earliest cycle a REFpb may be issued to
// rank r's round-robin target bank; that bank must be precharged first
// (ok = false while it holds an open row). Other banks keep operating. For
// a rank still in power-down, the result assumes a Wake issued at the
// query time.
func (c *Channel) RefreshBankReadyAt(now int64, r int) (int64, bool) {
	rk := c.rank(r)
	bk := &rk.banks[rk.refBank]
	if bk.open {
		return 0, false
	}
	return max(now, rk.refUntil, c.cmdFree, bk.actAllowed, c.pdExitAt(rk, now)), true
}

// RefreshBank issues a per-bank REFpb to rank r's round-robin target bank,
// blocking only that bank for tRFCpb and advancing the refresh deadline by
// tREFI/banks. The refresh energy is charged at 1/banks of the all-bank
// refresh power over tRFCpb (one bank's rows refresh at a time).
func (c *Channel) RefreshBank(at int64, r int) error {
	rk := c.rank(r)
	if rk.pd != PDAwake {
		return fmt.Errorf("dram: REFpb to rank %d in %v (Wake it first)", r, rk.pd)
	}
	if c.RefMode != RefPerBank {
		return fmt.Errorf("dram: REFpb on an all-bank refresh channel")
	}
	b := rk.refBank
	ready, ok := c.RefreshBankReadyAt(at, r)
	if !ok {
		return fmt.Errorf("dram: REFpb to rank %d bank %d with an open row", r, b)
	}
	if at < ready {
		return fmt.Errorf("dram: REFpb at %d before ready %d", at, ready)
	}
	if err := c.refreshElasticity(at, rk); err != nil {
		return err
	}
	c.flushBG(rk)
	bk := &rk.banks[b]
	bk.actAllowed = max(bk.actAllowed, at+int64(c.T.TRFCPB))
	rk.nextRefresh += c.refInterval()
	rk.refBank = (b + 1) % c.G.Banks
	c.cmdFree = at + 1
	c.Acc.Refresh(float64(c.T.TRFCPB) * c.T.TCKNs / float64(c.G.Banks))
	c.Stats.PerBankRefreshes++
	c.rowCtrResetBank(r, b)
	c.emit(CmdEvent{At: at, Kind: CmdRef, Rank: r, Bank: b})
	return nil
}
