package dram_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/power"
)

// checker is an independent referee for one channel's command stream. It
// re-derives every timing rule the device model enforces from a Timing, a
// Geometry and its own history of CmdEvents, and nothing else: it lives in
// the external test package, so it cannot read Channel's state, and it
// restates the PRA activation-weight rule (Section 4.1.3) instead of
// importing it.
//
// Enforced: tRCD (plus the PRA mask cycle after a partial ACT), tRP, tRAS,
// tRC, tWR, tRTP, tCCD (at least the previous burst), tWTR, tRTRS and data-bus
// overlap; read data starting CL and write data CWL after the command; one
// command per command-bus cycle (two for a partial ACT; an auto-precharge
// takes none); weighted tRRD and tFAW; the rank blocked for tRFC after a REF,
// the bank for tRFCpb after a REFpb and for tRFM after an RFM; no ACT to an
// open bank and no column command or PRE to a closed one; no command while
// CKE is low, active power-down only with a bank open and the other states
// only with all closed; after a wake, tXP (tXPDLL from slow-exit power-down,
// tXS from self-refresh) from the CKE rise before any command or re-entry,
// with CKE kept low tCKE after an entry and high tCKE after a wake. Out of
// scope: the refresh cadence.
type checker struct {
	t                dram.Timing
	g                dram.Geometry
	half, unweighted bool
	trfm             int64

	n       int            // events checked
	cmd     *dram.CmdEvent // last command that took the command bus
	cmdFree int64          // first cycle the command bus is free after it
	burst   *dram.CmdEvent // last data-bus transfer
	ranks   []ckRank
}

type ckRank struct {
	banks   []ckBank
	acts    []*dram.CmdEvent // ACTs still inside the tFAW window, oldest first
	lastAct *dram.CmdEvent
	col, wr *dram.CmdEvent // last column command and last write (tCCD, tWTR)
	ref     *dram.CmdEvent // last all-bank REF

	pd       dram.PDState   // power-down state
	down, up *dram.CmdEvent // last power-down entry and last wake
	left     dram.PDState   // the state the last wake left
}

type ckBank struct {
	open     bool
	act, pre *dram.CmdEvent
	rd, wr   *dram.CmdEvent // last read and write since the ACT
	blk      *dram.CmdEvent // last REFpb or RFM of the bank
	blkEnd   int64
	blkRule  string
}

// newChecker builds a referee for a channel of geometry g running timing t.
// half selects the Half-DRAM organization; unweighted charges every ACT a
// full tRRD/tFAW weight (the NoWeightedFAW ablation and SDS).
func newChecker(t dram.Timing, g dram.Geometry, half, unweighted bool) *checker {
	c := &checker{t: t, g: g, half: half, unweighted: unweighted, ranks: make([]ckRank, g.Ranks)}
	for r := range c.ranks {
		c.ranks[r].banks = make([]ckBank, g.Banks)
	}
	c.trfm = trfm(t)
	return c
}

// trfm returns how long an RFM blocks its bank: tRFM; the device documents
// 0 as "tRFCpb, then tRFC".
func trfm(t dram.Timing) int64 {
	switch {
	case t.TRFM > 0:
		return int64(t.TRFM)
	case t.TRFCPB > 0:
		return int64(t.TRFCPB)
	}
	return int64(t.TRFC)
}

// weight returns an ACT's tRRD/tFAW charge in sixteenths of a full-row
// activation: the eighths of the row it opens, halved under Half-DRAM, and a
// whole activation when the relaxation is off.
func (c *checker) weight(m core.Mask) int64 {
	if c.unweighted {
		return 16
	}
	w := 2 * int64(bits.OnesCount8(uint8(m)))
	if c.half {
		w /= 2
	}
	return w
}

// rrd returns the tRRD an ACT of weight w (sixteenths) imposes on the next
// ACT of its rank: ceil(tRRD*w), clamped to [1, tRRD].
func (c *checker) rrd(w int64) int64 {
	tRRD := int64(c.t.TRRD)
	return min(max((tRRD*w+15)/16, 1), tRRD)
}

func show(e *dram.CmdEvent) string { return "[" + strings.TrimSpace(e.String()) + "]" }

// early reports e, at cycle at, as too early for the bound earliest that prev
// imposes under rule.
func early(rule string, e, prev *dram.CmdEvent, at, earliest int64) error {
	if at >= earliest {
		return nil
	}
	return fmt.Errorf("%s: %s is %d cycle(s) early after %s (earliest %d)", rule, show(e), earliest-at, show(prev), earliest)
}

// check referees the next event of the stream and records it.
func (c *checker) check(e dram.CmdEvent) error {
	c.n++
	ev := &e
	if e.Rank < 0 || e.Rank >= c.g.Ranks || e.Bank < 0 || e.Bank >= c.g.Banks {
		return fmt.Errorf("address: %s outside %d ranks x %d banks", show(ev), c.g.Ranks, c.g.Banks)
	}
	rk := &c.ranks[e.Rank]
	bus := !e.AutoPre && e.Kind != dram.CmdCKE // takes a command-bus slot
	if bus && c.cmd != nil {
		rule := "command bus"
		if c.cmd.Kind == dram.CmdAct && c.cmd.Mask != core.FullMask {
			rule = "command bus (PRA mask cycle)"
		}
		if err := early(rule, ev, c.cmd, e.At, c.cmdFree); err != nil {
			return err
		}
	}
	if rk.ref != nil {
		if err := early("tRFC", ev, rk.ref, e.At, rk.ref.At+int64(c.t.TRFC)); err != nil {
			return err
		}
	}
	if e.Kind == dram.CmdCKE {
		return c.cke(ev, rk)
	}
	if err := c.awake(ev, rk); err != nil {
		return err
	}
	var err error
	switch e.Kind {
	case dram.CmdAct:
		err = c.act(ev, rk)
	case dram.CmdRead, dram.CmdWrite:
		err = c.column(ev, rk)
	case dram.CmdPre:
		err = c.pre(ev, &rk.banks[e.Bank])
	case dram.CmdRef, dram.CmdRFM:
		err = c.refresh(ev, rk)
	default:
		err = fmt.Errorf("kind: unknown command %s", show(ev))
	}
	if err != nil {
		return err
	}
	if bus {
		c.cmd, c.cmdFree = ev, e.At+1
		if e.Kind == dram.CmdAct && e.Mask != core.FullMask {
			c.cmdFree += int64(c.t.PRAMaskCycles)
		}
	}
	return nil
}

// exit returns the cycles from CKE rising to the first legal command after
// leaving state s, and the rule's name.
func (c *checker) exit(s dram.PDState) (int64, string) {
	switch s {
	case dram.PDPrechargeSlow:
		return int64(c.t.TXPDLL), "tXPDLL"
	case dram.PDSelfRefresh:
		return int64(c.t.TXS), "tXS"
	}
	return int64(c.t.TXP), "tXP"
}

// awake checks that CKE is high for a command or power-down entry e and that
// the exit window of the rank's last wake is over. CKE rises at the wake's
// request or once the rank has been down tCKE, whichever is later, so a
// command in the exit window counted from the request misses the exit rule,
// and one past it but inside the window counted from the end of the
// minimum CKE-low pulse misses tCKE.
func (c *checker) awake(e *dram.CmdEvent, rk *ckRank) error {
	if rk.pd != dram.PDAwake {
		return fmt.Errorf("CKE low: %s to r%d in %v", show(e), e.Rank, rk.pd)
	}
	if rk.up == nil {
		return nil
	}
	lat, rule := c.exit(rk.left)
	if err := early(rule, e, rk.up, e.At, rk.up.At+lat); err != nil {
		return err
	}
	return early("tCKE", e, rk.down, e.At, rk.down.At+int64(c.t.TCKE)+lat)
}

// cke referees a CKE transition. A wake needs a rank that is down. An entry
// needs an awake rank past its last wake's exit window and tCKE past the
// CKE rise, outside an all-bank refresh, and an open bank exactly when it
// enters active power-down.
func (c *checker) cke(e *dram.CmdEvent, rk *ckRank) error {
	if e.PD == dram.PDAwake {
		if rk.pd == dram.PDAwake {
			return fmt.Errorf("CKE: %s wakes an awake rank", show(e))
		}
		rk.left, rk.pd, rk.up = rk.pd, dram.PDAwake, e
		return nil
	}
	if err := c.awake(e, rk); err != nil {
		return err
	}
	if rk.up != nil {
		rise := max(rk.up.At, rk.down.At+int64(c.t.TCKE))
		if err := early("tCKE", e, rk.up, e.At, rise+int64(c.t.TCKE)); err != nil {
			return err
		}
	}
	open := false
	for _, bk := range rk.banks {
		open = open || bk.open
	}
	if open != (e.PD == dram.PDActive) {
		return fmt.Errorf("power-down state: %s with banks open = %v", show(e), open)
	}
	rk.pd, rk.down = e.PD, e
	return nil
}

// bankIdle checks what an ACT, REFpb, RFM or (per bank) REF needs of a
// closed bank: tRP since its PRE, tRC since its ACT, and the end of its last
// per-bank refresh or RFM.
func (c *checker) bankIdle(e *dram.CmdEvent, bk *ckBank) error {
	if bk.open {
		return fmt.Errorf("%v to an open bank: %s while %s holds r%d b%d open", e.Kind, show(e), show(bk.act), bk.act.Rank, bk.act.Bank)
	}
	if bk.pre != nil {
		if err := early("tRP", e, bk.pre, e.At, bk.pre.At+int64(c.t.TRP)); err != nil {
			return err
		}
	}
	if bk.act != nil {
		if err := early("tRC", e, bk.act, e.At, bk.act.At+int64(c.t.TRC)); err != nil {
			return err
		}
	}
	if bk.blk != nil {
		return early(bk.blkRule, e, bk.blk, e.At, bk.blkEnd)
	}
	return nil
}

func (c *checker) act(e *dram.CmdEvent, rk *ckRank) error {
	bk := &rk.banks[e.Bank]
	if err := c.bankIdle(e, bk); err != nil {
		return err
	}
	if e.Mask == 0 || e.Row < 0 || e.Row >= c.g.Rows {
		return fmt.Errorf("address: %s has an empty mask or a row outside %d", show(e), c.g.Rows)
	}
	if p := rk.lastAct; p != nil {
		if err := early("tRRD", e, p, e.At, p.At+c.rrd(c.weight(p.Mask))); err != nil {
			return err
		}
	}
	tFAW := int64(c.t.TFAW)
	keep := rk.acts[:0]
	sum := c.weight(e.Mask)
	for _, a := range rk.acts {
		if a.At+tFAW > e.At {
			keep = append(keep, a)
			sum += c.weight(a.Mask)
		}
	}
	rk.acts = keep
	// The window may hold four full activations' worth (64 sixteenths); an
	// ACT that overfills it fits once enough of the oldest ones leave.
	for _, a := range rk.acts {
		if sum <= 64 {
			break
		}
		if sum -= c.weight(a.Mask); sum <= 64 {
			return early("tFAW", e, a, e.At, a.At+tFAW)
		}
	}
	bk.open, bk.act, bk.rd, bk.wr = true, e, nil, nil
	rk.lastAct = e
	rk.acts = append(rk.acts, e)
	return nil
}

func (c *checker) column(e *dram.CmdEvent, rk *ckRank) error {
	bk := &rk.banks[e.Bank]
	if !bk.open {
		return fmt.Errorf("%v to a closed bank: %s", e.Kind, show(e))
	}
	if e.Row != bk.act.Row {
		return fmt.Errorf("open row: %s names a row other than %s opened", show(e), show(bk.act))
	}
	rcd, rule := int64(c.t.TRCD), "tRCD"
	if bk.act.Mask != core.FullMask {
		rcd, rule = rcd+int64(c.t.PRAMaskCycles), "tRCD+PRA mask cycle"
	}
	if err := early(rule, e, bk.act, e.At, bk.act.At+rcd); err != nil {
		return err
	}
	lat, name := int64(c.t.TCAS), "CL"
	if e.Kind == dram.CmdWrite {
		lat, name = int64(c.t.CWL), "CWL"
	}
	if e.DataStart-e.At != lat || e.DataEnd <= e.DataStart {
		return fmt.Errorf("%s: %s moves data %d cycle(s) after the command, want %d, for %d cycle(s)",
			name, show(e), e.DataStart-e.At, lat, e.DataEnd-e.DataStart)
	}
	if p := rk.col; p != nil {
		if err := early("tCCD", e, p, e.At, p.At+max(int64(c.t.TCCD), p.DataEnd-p.DataStart)); err != nil {
			return err
		}
	}
	if p := rk.wr; p != nil && e.Kind == dram.CmdRead {
		if err := early("tWTR", e, p, e.At, p.DataEnd+int64(c.t.TWTR)); err != nil {
			return err
		}
	}
	if p := c.burst; p != nil {
		if err := early("data bus", e, p, e.DataStart, p.DataEnd); err != nil {
			return err
		}
		if p.Kind != e.Kind || p.Rank != e.Rank {
			if err := early("tRTRS", e, p, e.DataStart, p.DataEnd+int64(c.t.TRTRS)); err != nil {
				return err
			}
		}
	}
	if e.Kind == dram.CmdRead {
		bk.rd = e
	} else {
		bk.wr, rk.wr = e, e
	}
	rk.col, c.burst = e, e
	return nil
}

func (c *checker) pre(e *dram.CmdEvent, bk *ckBank) error {
	if !bk.open {
		return fmt.Errorf("PRE to a closed bank: %s", show(e))
	}
	if err := early("tRAS", e, bk.act, e.At, bk.act.At+int64(c.t.TRAS)); err != nil {
		return err
	}
	if p := bk.rd; p != nil {
		if err := early("tRTP", e, p, e.At, p.At+int64(c.t.TRTP)); err != nil {
			return err
		}
	}
	if p := bk.wr; p != nil {
		if err := early("tWR", e, p, e.At, p.DataEnd+int64(c.t.TWR)); err != nil {
			return err
		}
	}
	bk.open, bk.pre = false, e
	return nil
}

// refresh referees an all-bank REF (every bank idle; the rank then blocks
// for tRFC), a REFpb (its bank idle, then blocked for tRFCpb) or an RFM (its
// bank idle, then blocked for tRFM).
func (c *checker) refresh(e *dram.CmdEvent, rk *ckRank) error {
	if e.Kind == dram.CmdRef && !e.PerBank {
		for b := range rk.banks {
			if err := c.bankIdle(e, &rk.banks[b]); err != nil {
				return err
			}
		}
		rk.ref = e
		return nil
	}
	bk := &rk.banks[e.Bank]
	if err := c.bankIdle(e, bk); err != nil {
		return err
	}
	bk.blk, bk.blkEnd, bk.blkRule = e, e.At+int64(c.t.TRFCPB), "tRFCpb"
	if e.Kind == dram.CmdRFM {
		bk.blkEnd, bk.blkRule = e.At+c.trfm, "tRFM"
	}
	return nil
}

// streamCase selects one random command stream of the driver.
type streamCase struct {
	seed                      int64
	perBank, unweighted, half bool
}

// seedStreams are the fuzz target's seed corpus: all-bank and per-bank
// refresh, weighted, Half-DRAM and unweighted (the ablation, SDS) activation
// windows.
var seedStreams = []streamCase{
	{1, false, false, false},
	{2, true, false, true},
	{3, false, true, false},
	{4, true, true, true},
}

// driveStream issues a random stream of steps commands to a channel built
// from the device timing dev and chip powers chip — partial and full ACTs,
// reads and writes with and without auto-precharge, precharges, all-bank or
// per-bank refresh late, on time or pulled in, RFM, every power-down state
// and its wake, on both ranks, each at the cycle the device reports ready —
// and referees every event with a checker holding the timing ref. At the end
// an energy referee holding the baseline chip powers recomputes the
// channel's energy from the stream. Odd seeds add an ECC chip, and an
// unweighted stream without Half-DRAM scales activation energy linearly, as
// SDS does. It returns the number of events checked and the first
// violation, the device's refusal of a command it had reported ready, or
// the first energy component the device booked differently.
func driveStream(dev dram.Timing, chip power.ChipPowers, ref dram.Timing, sc streamCase, steps int) (int, error) {
	acc := power.NewAccumulator()
	acc.Chip = chip
	acc.ECCChips = int(sc.seed & 1)
	acc.LinearActScale = sc.unweighted && !sc.half
	ch, err := dram.NewChannel(dev, dram.DefaultGeometry(), acc)
	if err != nil {
		return 0, err
	}
	ch.NoWeightedFAW = sc.unweighted
	ch.TrackRows()
	ch.RefMode = dram.RefElastic
	if sc.perBank {
		ch.RefMode = dram.RefPerBank
	}
	ck := newChecker(ref, ch.G, sc.half, sc.unweighted)
	er := newEnergyReferee(dev, ch.G, sc.half, acc.LinearActScale, acc.ECCChips)
	var bad error
	ch.Trace = func(e dram.CmdEvent) {
		er.observe(e)
		if bad == nil {
			bad = ck.check(e)
		}
	}
	must := func(err error) {
		if bad == nil && err != nil {
			bad = fmt.Errorf("device refused a command it reported ready: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(sc.seed))
	ch.SlowExitPD = rng.Intn(2) == 0
	now := int64(0)
	// down is each rank's last power-down entry. The driver wakes a rank
	// only once it has been down the device's tCKE: a wake requested
	// earlier would leave it to the device to hold CKE low, and a command
	// early after it would miss tCKE and the exit rule alike, so a
	// violation could not name which one the device got wrong.
	down := make([]int64, ch.G.Ranks)
	for i := 0; i < steps && bad == nil; i++ {
		if rng.Intn(4) == 0 {
			now += int64(rng.Intn(40)) // idle gap: constraints expire at different cycles
		}
		r, b := rng.Intn(ch.G.Ranks), rng.Intn(ch.G.Banks)
		if ch.PoweredDown(r) {
			if rng.Intn(3) > 0 {
				continue // stay down: readiness then assumes a wake at the query
			}
			now = max(now, down[r]+int64(ch.T.TCKE))
			ch.Clock(now)
			ch.Wake(now, r)
		}
		burst := ch.T.TBURST * (1 + rng.Intn(2))
		_, _, open := ch.OpenRow(r, b)
		switch op := rng.Intn(20); {
		case op < 4 && ch.RefreshDue(now, r) || op == 0 && ch.CanPullIn(now, r): // refresh: late, on time or pulled in
			for bb := 0; bb < ch.G.Banks; bb++ {
				if _, _, o := ch.OpenRow(r, bb); o && (!sc.perBank || bb == ch.NextRefreshBank(r)) {
					now = ch.PreReadyAt(now, r, bb)
					ch.Clock(now)
					must(ch.Precharge(now, r, bb))
				}
			}
			if sc.perBank {
				now, _ = ch.RefreshBankReadyAt(now, r)
				ch.Clock(now)
				must(ch.RefreshBank(now, r))
			} else {
				now, _ = ch.RefreshReadyAt(now, r)
				ch.Clock(now)
				must(ch.Refresh(now, r))
			}
		case op == 1: // power down, or self-refresh, when the rank allows it
			at := max(now, ch.PDEntryReadyAt(r))
			ch.Clock(at)
			var in bool
			switch {
			case ch.AnyBankOpen(r):
				in = ch.EnterActivePowerDown(at, r)
			case rng.Intn(3) == 0:
				in = ch.EnterSelfRefresh(at, r)
			default:
				in = ch.EnterPowerDown(at, r)
			}
			if in {
				down[r] = at
			}
			now = at
		case op == 2 && !open:
			now, _ = ch.RFMReadyAt(now, r, b)
			ch.Clock(now)
			must(ch.RefreshManage(now, r, b))
		case !open:
			mask := core.FullMask
			if rng.Intn(3) > 0 {
				mask = core.Mask(rng.Intn(255) + 1)
			}
			now = ch.ActReadyAt(now, r, b, mask, sc.half)
			ch.Clock(now)
			must(ch.Activate(now, r, b, rng.Intn(ch.G.Rows), mask, sc.half))
		case op < 8:
			now = ch.PreReadyAt(now, r, b)
			ch.Clock(now)
			must(ch.Precharge(now, r, b))
		case op < 14:
			now = ch.ReadReadyAt(now, r, b, burst)
			ch.Clock(now)
			_, err := ch.Read(now, r, b, burst, 1, rng.Intn(4) == 0)
			must(err)
		default:
			now = ch.WriteReadyAt(now, r, b, burst)
			ch.Clock(now)
			_, err := ch.Write(now, r, b, burst, rng.Float64(), rng.Intn(4) == 0)
			must(err)
		}
	}
	if bad == nil {
		ch.AdvanceTo(now)
		bad = agree(ch.Acc.Energy(), er.energy(now))
	}
	return ck.n, bad
}

// FuzzLegalCommandStream drives a channel through a random command stream,
// each command at the cycle the device reports ready, and holds every
// command it accepts to the independent checker: the device's readiness
// rules may be no looser than the DDR3 rules they claim to implement. The
// energy referee then holds the channel's energy to what the stream spent.
func FuzzLegalCommandStream(f *testing.F) {
	for _, sc := range seedStreams {
		f.Add(sc.seed, sc.perBank, sc.unweighted, sc.half)
	}
	f.Fuzz(func(t *testing.T, seed int64, perBank, unweighted, half bool) {
		sc := streamCase{seed, perBank, unweighted, half}
		n, err := driveStream(dram.DefaultTiming(), power.DefaultChipPowers(), dram.DefaultTiming(), sc, 3000)
		if err != nil {
			t.Fatalf("command %d: %v", n, err)
		}
		if n < 1500 {
			t.Fatalf("stream issued only %d commands", n)
		}
	})
}

// mutationBase is the timing the mutation table shortens: DDR3-1600 with
// one cycle of headroom on tRC over tRAS+tRP, on tCCD over the burst and on
// tCKE over tXP. At the datasheet values those three are implied by the
// others (an ACT-to-ACT gap of tRAS+tRP already is tRC; a back-to-back
// burst already spaces columns tCCD apart; a re-entry past a wake's tXP
// exit window already is tCKE after it), so a device that undercut them by
// a cycle would still be legal, and their rows could not fail.
func mutationBase() dram.Timing {
	t := dram.DefaultTiming()
	t.TRC = t.TRAS + t.TRP + 1
	t.TCCD = t.TBURST + 1
	t.TCKE = t.TXP + 1
	return t
}

// names reports whether err is a violation of one of the |-separated rules.
func names(err error, rules string) bool {
	for _, r := range strings.Split(rules, "|") {
		if strings.HasPrefix(err.Error(), r+": ") {
			return true
		}
	}
	return false
}

// TestCheckerCatchesEveryShortenedTiming proves the checker is not vacuous:
// for each timing parameter it enforces, a device whose copy is one cycle
// short drives the seed streams while the checker keeps the exact copy, and
// the checker must report a violation naming the parameter's rule within the
// row's command budget. The unmutated row must pass.
func TestCheckerCatchesEveryShortenedTiming(t *testing.T) {
	t.Parallel()
	rows := []struct {
		param, rule string // rule: the accepted violation names, |-separated
		shorten     func(*dram.Timing)
		// budget bounds the events, counted over the seed streams in
		// order, before the violation: REFpb first appears in the second
		// stream, slow-exit power-down in the third, and a weighted tFAW
		// window rarely fills before the third, unweighted one.
		budget int
	}{
		{"none", "", func(*dram.Timing) {}, 0},
		{"TRCD", "tRCD|tRCD+PRA mask cycle", func(t *dram.Timing) { t.TRCD-- }, 200},
		{"TRP", "tRP", func(t *dram.Timing) { t.TRP-- }, 200},
		{"TRAS", "tRAS", func(t *dram.Timing) { t.TRAS-- }, 200},
		{"TRC", "tRC", func(t *dram.Timing) { t.TRC-- }, 200},
		{"TWR", "tWR", func(t *dram.Timing) { t.TWR-- }, 200},
		{"TRTP", "tRTP", func(t *dram.Timing) { t.TRTP-- }, 200},
		{"TCCD", "tCCD", func(t *dram.Timing) { t.TCCD-- }, 200},
		{"TWTR", "tWTR", func(t *dram.Timing) { t.TWTR-- }, 200},
		{"TRTRS", "tRTRS", func(t *dram.Timing) { t.TRTRS-- }, 200},
		{"TRRD", "tRRD", func(t *dram.Timing) { t.TRRD-- }, 200},
		{"TFAW", "tFAW", func(t *dram.Timing) { t.TFAW-- }, 8000},
		{"TRFC", "tRFC", func(t *dram.Timing) { t.TRFC-- }, 200},
		{"TRFCPB", "tRFCpb", func(t *dram.Timing) { t.TRFCPB-- }, 4000},
		{"TRFM", "tRFM", func(t *dram.Timing) { t.TRFM-- }, 200},
		{"PRAMaskCycles", "tRCD+PRA mask cycle|command bus (PRA mask cycle)", func(t *dram.Timing) { t.PRAMaskCycles-- }, 200},
		{"TCAS", "CL", func(t *dram.Timing) { t.TCAS-- }, 200},
		{"CWL", "CWL", func(t *dram.Timing) { t.CWL-- }, 200},
		{"TCKE", "tCKE", func(t *dram.Timing) { t.TCKE-- }, 200},
		{"TXP", "tXP", func(t *dram.Timing) { t.TXP-- }, 200},
		{"TXPDLL", "tXPDLL", func(t *dram.Timing) { t.TXPDLL-- }, 8000},
		{"TXS", "tXS", func(t *dram.Timing) { t.TXS-- }, 1000},
	}
	ref := mutationBase()
	for _, row := range rows {
		t.Run(row.param, func(t *testing.T) {
			t.Parallel()
			dev := ref
			row.shorten(&dev)
			total := 0
			for _, sc := range seedStreams {
				n, err := driveStream(dev, power.DefaultChipPowers(), ref, sc, 3000)
				total += n
				switch {
				case err != nil && row.rule == "":
					t.Fatalf("exact timing, seed %d, command %d: %v", sc.seed, n, err)
				case err != nil && !names(err, row.rule):
					t.Fatalf("%s one cycle short, seed %d: violation does not name %s: %v", row.param, sc.seed, row.rule, err)
				case err != nil:
					if total > row.budget {
						t.Errorf("%s one cycle short: caught only after %d commands (budget %d): %v", row.param, total, row.budget, err)
					}
					t.Logf("caught after %d commands: %v", total, err)
					return
				}
			}
			if row.rule != "" {
				t.Fatalf("%s one cycle short: %d commands passed the checker", row.param, total)
			}
		})
	}
}
