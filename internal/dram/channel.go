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
	// partition total rank-cycles, the denominator of the residency
	// fractions.
	ActiveRankCycles     int64
	PrechargedRankCycles int64
	// WordsWritten / WordBudget track the write I/O utilization: words
	// actually driven on the bus vs words a conventional system would
	// drive (8 per write).
	WordsWritten int64
	WordBudget   int64
	// RFMs counts Refresh Management commands (rowcounter.go).
	RFMs int64
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

	// RefMode selects the refresh discipline: all-bank, per-bank, or
	// elastic (all-bank with JEDEC's postpone/pull-in window).
	RefMode RefreshMode

	// Trace, when non-nil, receives every issued command and CKE
	// transition in issue order (see CmdEvent). Used for command-level
	// debugging, golden-trace tests, and the independent command-stream
	// checker and energy referee.
	Trace func(CmdEvent)

	ranks   []rankState
	cmdFree int64 // next cycle the command/address bus is free

	busFree int64 // first cycle the data bus is free
	busDir  BusDir
	busRank int

	acctUpTo int64 // background energy accounted up to this cycle

	tck float64 // T.Rate.TCKNs(): the ns per cycle every energy booking scales by

	// rowCtr holds the optional per-row activation counters
	// (rowcounter.go); nil unless TrackRows enabled them. Counter contents
	// are simulation state: they survive ResetStats and are checkpointed.
	rowCtr rowCounters

	// Stats receives the channel's event counts. NewChannel gives the
	// channel its own block; a memory controller points all its channels
	// at one, so the block holds the system totals.
	Stats *Stats
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
		tck:   t.Rate.TCKNs(),
		ranks: make([]rankState, g.Ranks),
		Stats: new(Stats),
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
// pre-reset tallies, not the fresh ones; channels sharing one Stats each
// flush before they zero it, so none of their spans survive the reset.
func (c *Channel) ResetStats() {
	c.FlushBackground()
	*c.Stats = Stats{}
}

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
	if rk.refUntil > t {
		stop := min(rk.refUntil, end)
		n := stop - t
		c.Stats.ActiveRankCycles += n
		c.Acc.Background(power.RankActive, c.tck*float64(n))
		t = stop
	}
	if t >= end {
		return
	}
	n := end - t
	switch {
	case rk.pd == PDPrechargeFast:
		c.Stats.PowerDownCycles += n
		c.Acc.Background(power.RankPoweredDown, c.tck*float64(n))
	case rk.pd == PDActive:
		c.Stats.ActivePDCycles += n
		c.Acc.Background(power.RankActivePD, c.tck*float64(n))
	case rk.pd == PDPrechargeSlow:
		c.Stats.SlowPDCycles += n
		c.Acc.Background(power.RankPoweredDownSlow, c.tck*float64(n))
	case rk.pd == PDSelfRefresh:
		c.Stats.SelfRefCycles += n
		c.Acc.Background(power.RankSelfRefresh, c.tck*float64(n))
	case rk.openCount > 0:
		c.Stats.ActiveRankCycles += n
		c.Acc.Background(power.RankActive, c.tck*float64(n))
	default:
		c.Stats.PrechargedRankCycles += n
		c.Acc.Background(power.RankPrecharged, c.tck*float64(n))
	}
}

// admit is the one admission check of the seven issue methods: rank r must
// be awake (the controller wakes it first), bank b open for a column command
// or PRE and closed for the rest — every bank of the rank for b == allBanks
// — and at no earlier than the command's ready cycle. cmd, a mnemonic or a
// CmdKind, is formatted only into an error.
func (c *Channel) admit(cmd any, at, ready int64, r, b int, wantOpen bool) error {
	rk := c.rank(r)
	open := rk.openCount > 0
	if b != allBanks {
		open = rk.banks[b].open
	}
	switch {
	case rk.pd != PDAwake:
		return fmt.Errorf("dram: %s to rank %d in %v (Wake it first)", cmd, r, rk.pd)
	case open && !wantOpen:
		return fmt.Errorf("dram: %s to rank %d bank %d with an open row", cmd, r, b)
	case !open && wantOpen:
		return fmt.Errorf("dram: %s to closed bank %d/%d", cmd, r, b)
	case at < ready:
		return fmt.Errorf("dram: %s at %d before ready %d (rank %d bank %d)", cmd, at, ready, r, b)
	}
	return nil
}

// ActReadyAt returns the earliest cycle >= now at which an ACT of the given
// mask may be issued to bank (r,b). For a rank still in power-down, the
// result assumes a Wake issued at the query time.
func (c *Channel) ActReadyAt(now int64, r, b int, mask core.Mask, halfDRAM bool) int64 {
	return max(now, c.BankTerms(r, b).Act, c.rankFold(now, r).Act, c.FAWReadyAt(r, mask, halfDRAM))
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
	if err := c.admit("ACT", at, c.ActReadyAt(at, r, b, mask, halfDRAM), r, b, false); err != nil {
		return err
	}
	rk, bk := c.rank(r), c.bank(r, b)
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

	c.Acc.Activation(mask.Granularity(), halfDRAM, float64(c.T.TRC)*c.tck)
	c.Stats.ActsByGranularity[mask.Granularity()]++
	c.rowCtrOnAct(r, b, row)
	c.emit(CmdEvent{At: at, Kind: CmdAct, Rank: r, Bank: b, Row: row, Mask: mask})
	return nil
}

// ReadReadyAt returns the earliest command cycle >= now for a column read
// from bank (r,b). The burst length does not enter: only the bursts already
// on the bus constrain the next one.
func (c *Channel) ReadReadyAt(now int64, r, b, burstCycles int) int64 {
	return max(now, c.BankTerms(r, b).Read, c.rankFold(now, r).Read)
}

// Read issues a column read; returns the cycle the last data beat arrives.
// autoPre closes the row with an auto-precharge honoring tRTP. frac scales
// the array-read and I/O energy relative to a full-rate burst: FGA drives
// the bus at half rate for twice as long (prefetch broken), so it passes
// burstCycles = 2x base with frac = 0.5 and spends the same energy moving
// the same bits.
func (c *Channel) Read(at int64, r, b, burstCycles int, frac float64, autoPre bool) (done int64, err error) {
	return c.column(at, r, b, burstCycles, frac, autoPre, BusRead)
}

// WriteReadyAt returns the earliest command cycle >= now for a column write.
func (c *Channel) WriteReadyAt(now int64, r, b, burstCycles int) int64 {
	return max(now, c.BankTerms(r, b).Write, c.rankFold(now, r).Write)
}

// Write issues a column write. frac is the fraction of the line's words
// actually driven (PRA transfers only dirty words). Returns the cycle the
// burst completes on the bus.
func (c *Channel) Write(at int64, r, b, burstCycles int, frac float64, autoPre bool) (done int64, err error) {
	return c.column(at, r, b, burstCycles, frac, autoPre, BusWrite)
}

// column is the issue path of RD (d == BusRead) and WR. The burst starts CL
// or CWL after the command; column returns the cycle it ends.
func (c *Channel) column(at int64, r, b, burstCycles int, frac float64, autoPre bool, d BusDir) (int64, error) {
	kind, lat, ready := CmdRead, c.T.TCAS, c.ReadReadyAt(at, r, b, burstCycles)
	if d == BusWrite {
		kind, lat, ready = CmdWrite, c.T.CWL, c.WriteReadyAt(at, r, b, burstCycles)
	}
	if err := c.admit(kind, at, ready, r, b, true); err != nil {
		return 0, err
	}
	rk, bk := c.rank(r), c.bank(r, b)
	start := at + int64(lat)
	end := start + int64(burstCycles)
	c.busFree, c.busDir, c.busRank = end, d, r
	rk.colAllowed = at + max(int64(c.T.TCCD), int64(burstCycles))
	c.cmdFree = at + 1
	if d == BusRead {
		bk.preAllowed = max(bk.preAllowed, at+int64(c.T.TRTP))
		c.Acc.ReadBurst(float64(burstCycles) * c.tck * min(max(frac, 0), 1))
		c.Stats.Reads++
	} else {
		rk.rdAfterWr = end + int64(c.T.TWTR)
		bk.preAllowed = max(bk.preAllowed, end+int64(c.T.TWR))
		c.Acc.WriteBurst(float64(burstCycles)*c.tck, frac)
		c.Stats.Writes++
		c.Stats.WordsWritten += int64(frac*float64(core.WordsPerLine) + 0.5)
		c.Stats.WordBudget += core.WordsPerLine
	}
	c.emit(CmdEvent{At: at, Kind: kind, Rank: r, Bank: b, Row: bk.row, DataStart: start, DataEnd: end, Frac: frac})
	if autoPre {
		c.closeBank(r, b, c.BankTerms(r, b).Pre, true)
	}
	return end, nil
}

// PreReadyAt returns the earliest cycle a precharge may be issued. For a
// rank in active power-down, the result assumes a Wake issued at the query
// time.
func (c *Channel) PreReadyAt(now int64, r, b int) int64 {
	return max(now, c.BankTerms(r, b).Pre, c.rankFold(now, r).Pre)
}

// Precharge closes the bank's row. The ACT-PRE pair energy was charged at
// activation (the Micron model folds both into P_ACT over tRC).
func (c *Channel) Precharge(at int64, r, b int) error {
	if err := c.admit("PRE", at, c.PreReadyAt(at, r, b), r, b, true); err != nil {
		return err
	}
	c.cmdFree = at + 1
	c.closeBank(r, b, at, false)
	return nil
}

// closeBank closes bank (r,b) at preAt, for an explicit PRE or (auto) a
// column command's auto-precharge.
func (c *Channel) closeBank(r, b int, preAt int64, auto bool) {
	rk, bk := c.rank(r), c.bank(r, b)
	c.flushBG(rk)
	c.emit(CmdEvent{At: preAt, Kind: CmdPre, Rank: r, Bank: b, Row: bk.row, AutoPre: auto})
	bk.open = false
	bk.mask = 0
	bk.actAllowed = max(bk.actAllowed, preAt+int64(c.T.TRP))
	rk.openCount--
	c.Stats.Precharges++
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
// (or ahead of) its nominal deadline a refresh may issue. Only elastic
// refresh has one; elsewhere a refresh is due exactly at its deadline.
func (c *Channel) postponeWindow() int64 {
	if c.RefMode != RefElastic {
		return 0
	}
	return refreshCredit * c.refInterval()
}

// neverRefresh is the refresh-horizon sentinel for ranks that owe no
// external refresh (self-refreshing ranks). Far enough that it never
// constrains a sleep horizon, small enough that adding offsets cannot
// overflow.
const neverRefresh = int64(1) << 62

// NextRefreshAt returns the cycle rank r's next refresh falls due. A
// self-refreshing rank owes no external refresh: neverRefresh.
func (c *Channel) NextRefreshAt(r int) int64 {
	rk := c.rank(r)
	if rk.pd == PDSelfRefresh {
		return neverRefresh
	}
	return rk.nextRefresh
}

// MustRefreshAt returns the cycle rank r's next refresh stops being
// postponable — its hard deadline under the elasticity window.
func (c *Channel) MustRefreshAt(r int) int64 { return c.NextRefreshAt(r) + c.postponeWindow() }

// RefreshDue reports whether rank r owes a refresh at cycle now.
func (c *Channel) RefreshDue(now int64, r int) bool { return c.NextRefreshAt(r) <= now }

// RefreshMust reports whether rank r's refresh can no longer be postponed:
// the nominal deadline plus the full elasticity window has passed. Outside
// elastic refresh it coincides with RefreshDue.
func (c *Channel) RefreshMust(now int64, r int) bool { return c.MustRefreshAt(r) <= now }

// CanPullIn reports whether rank r may issue a refresh ahead of its
// nominal deadline at cycle now without exceeding the pull-in credit of
// refreshCredit intervals; never outside elastic refresh.
func (c *Channel) CanPullIn(now int64, r int) bool {
	return c.RefMode == RefElastic && c.NextRefreshAt(r)-now < c.postponeWindow()
}

// NextRefreshAny returns the earliest NextRefreshAt across all ranks — the
// channel-level bound the controller folds into its sleep horizon (a
// sleeping channel must still wake to refresh on time).
func (c *Channel) NextRefreshAny() int64 {
	at := neverRefresh
	for r := range c.ranks {
		at = min(at, c.NextRefreshAt(r))
	}
	return at
}

// allBanks is the bank argument of a refresh-class command that covers the
// whole rank: an all-bank REF.
const allBanks = -1

// banks returns the banks [lo, hi) a refresh-class command to bank b covers.
func (c *Channel) banks(b int) (lo, hi int) {
	if b == allBanks {
		return 0, c.G.Banks
	}
	return b, b + 1
}

// refreshReadyAt is the readiness of REF, REFpb and RFM: behind the rank
// gate, every bank the command covers must be closed (ok = false otherwise)
// and ready for an ACT — tRP past its precharge, tRC past its activation,
// any earlier refresh or RFM of it over.
func (c *Channel) refreshReadyAt(now int64, r, b int) (at int64, ok bool) {
	at = max(now, c.rankFold(now, r).Pre)
	lo, hi := c.banks(b)
	for i := lo; i < hi; i++ {
		if _, _, open := c.OpenRow(r, i); open {
			return 0, false
		}
		at = max(at, c.BankTerms(r, i).Act)
	}
	return at, true
}

// RefreshReadyAt returns the earliest cycle a REF may be issued to rank r;
// all banks must be precharged first (the controller is responsible for
// closing them). For a rank still in power-down, the result assumes a Wake
// issued at the query time.
func (c *Channel) RefreshReadyAt(now int64, r int) (int64, bool) {
	return c.refreshReadyAt(now, r, allBanks)
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
	return c.refreshReadyAt(now, r, c.NextRefreshBank(r))
}

// Refresh issues an all-bank REF to rank r, blocking it for tRFC. The rank
// must have been woken from power-down first, and all banks precharged.
func (c *Channel) Refresh(at int64, r int) error {
	if c.RefMode == RefPerBank {
		return fmt.Errorf("dram: all-bank REF on a per-bank refresh channel (use RefreshBank)")
	}
	return c.refresh(at, r, allBanks)
}

// RefreshBank issues a per-bank REFpb to rank r's round-robin target bank,
// blocking only that bank for tRFCpb and advancing the refresh deadline by
// tREFI/banks. The refresh energy is charged at 1/banks of the all-bank
// refresh power over tRFCpb (one bank's rows refresh at a time).
func (c *Channel) RefreshBank(at int64, r int) error {
	if c.RefMode != RefPerBank {
		return fmt.Errorf("dram: REFpb on an all-bank refresh channel")
	}
	return c.refresh(at, r, c.NextRefreshBank(r))
}

// refresh issues a REF (b == allBanks) or a REFpb of bank b to rank r,
// within the refresh elasticity window, and advances its deadline.
func (c *Channel) refresh(at int64, r, b int) error {
	cmd, dur := "REF", int64(c.T.TRFC)
	if b != allBanks {
		cmd, dur = "REFpb", int64(c.T.TRFCPB)
	}
	ready, _ := c.refreshReadyAt(at, r, b)
	if err := c.admit(cmd, at, ready, r, b, false); err != nil {
		return err
	}
	rk := c.rank(r)
	if ahead := rk.nextRefresh - at; ahead > 0 {
		if ahead >= c.postponeWindow() {
			return fmt.Errorf("dram: refresh pull-in at %d exceeds the %d-cycle %v credit (deadline %d)",
				at, c.postponeWindow(), c.RefMode, rk.nextRefresh)
		}
		c.Stats.PulledInRefreshes++
	} else if at >= rk.nextRefresh+c.refInterval() {
		c.Stats.PostponedRefreshes++
	}
	c.block(at, r, b, dur)
	rk.nextRefresh += c.refInterval()
	if b == allBanks {
		c.Stats.Refreshes++
	} else {
		rk.refBank = (b + 1) % c.G.Banks
		c.Stats.PerBankRefreshes++
	}
	c.rowCtrReset(r, b)
	c.emit(CmdEvent{At: at, Kind: CmdRef, Rank: r, Bank: max(b, 0), PerBank: b != allBanks})
	return nil
}

// block is the one bank-blocking path of REF, REFpb and RFM: the banks the
// command to bank b covers accept no ACT for dur cycles from at, and an
// all-bank REF blocks the whole rank. The command takes the command bus and
// charges a refresh burst of dur cycles — of one bank's rows for a per-bank
// command.
func (c *Channel) block(at int64, r, b int, dur int64) {
	rk := c.rank(r)
	c.flushBG(rk)
	e := float64(dur) * c.tck
	if b == allBanks {
		rk.refUntil = at + dur
	} else {
		e /= float64(c.G.Banks)
	}
	lo, hi := c.banks(b)
	for i := lo; i < hi; i++ {
		rk.banks[i].actAllowed = max(rk.banks[i].actAllowed, at+dur)
	}
	c.cmdFree = at + 1
	c.Acc.Refresh(e)
}
