package memctrl

import (
	"math"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Checkpointing (DESIGN.md §4e). The controller serializes the DRAM clock
// and per channel: the DRAM channel state, the request queues (each queue
// in arrival order — FR-FCFS picks the oldest candidate, so order is
// simulation-visible), the forward list, drain, hit and idle-clock
// bookkeeping, the mitigation FSM, and the wake time. What follows from
// those is rebuilt, not saved: the clock stride (the CPU cycle of the next
// DRAM tick), the NextEvent cache (settleWake, as after every tick), each
// write's projected mask, and the bank index (lists, arrival stamps,
// open-row summaries, rankCount), by re-pushing the restored queues in file
// order with every bank's cached scheduling decision invalidated. The
// refresh engine's pending flags are per-pass scratch: issueRefresh sets
// every rank's before a pass reads one, and all are false while no rank is
// due, so restore clears them.
// Statistics and energy are not serialized: checkpoints are taken at the
// warmup boundary, immediately after ResetStats.
//
// Read-request completions point back into the cache hierarchy's MSHR
// entries; they are rebound through the line-id resolver the hierarchy's
// RestoreState returns.

func saveReq(w *checkpoint.Writer, req *request) {
	w.U8(uint8(req.kind))
	w.Int(req.loc.Channel)
	w.Int(req.loc.Rank)
	w.Int(req.loc.Bank)
	w.Int(req.loc.Row)
	w.Int(req.loc.Col)
	w.U64(uint64(req.byteMask))
	w.I64(req.arrive)
	if req.kind == core.Read {
		w.U8(uint8(req.done.Tag.Kind))
		w.U64(req.done.Tag.Serial)
	}
	w.Bool(req.activated)
	w.Bool(req.falseHit)
	// Attribution state (latency.go), ckptFormat v4: the sweep frontier
	// and the blame accumulated so far, so a restored run's completed
	// requests report the same breakdowns as the monolithic run's.
	w.I64(req.mark)
	for _, v := range req.brk {
		w.I64(v)
	}
}

// SaveState appends the controller's dynamic state.
func (c *Controller) SaveState(w *checkpoint.Writer) {
	w.I64(c.lastMem)
	for _, cc := range c.chans {
		cc.ch.SaveState(w)
		for _, q := range [][]*request{cc.queued(core.Read), cc.queued(core.Write), cc.forwards} {
			w.Count(len(q))
			for _, req := range q {
				saveReq(w, req)
			}
		}
		w.Bool(cc.drain)
		for bi := range cc.banks {
			w.Int(cc.banks[bi].hits)
		}
		for _, t := range cc.lastWork {
			w.I64(t)
		}
		w.I64(cc.nextWake)
		// Alert/RFM mitigation FSM (mitigation.go), ckptFormat v3: a
		// restored run must wait out an in-flight back-off and issue the
		// pending RFM exactly like the monolithic run.
		w.Bool(cc.rfmPending)
		w.Int(cc.rfmRank)
		w.Int(cc.rfmBank)
		w.I64(cc.alertUntil)
	}
}

// restoreReq decodes one request for channel cc; fillResolve rebinds read
// completions to the restored MSHR entries.
func (cc *chanCtl) restoreReq(r *checkpoint.Reader, fillResolve func(lineID uint64) (core.Done, bool)) *request {
	req := &request{}
	req.kind = core.AccessKind(r.U8())
	if req.kind != core.Read && req.kind != core.Write {
		r.Fail("memctrl: request kind %d", req.kind)
	}
	req.loc.Channel = r.Int()
	req.loc.Rank = r.Int()
	req.loc.Bank = r.Int()
	req.loc.Row = r.Int()
	req.loc.Col = r.Int()
	req.byteMask = core.ByteMask(r.U64())
	req.wordMask = core.FullMask
	if req.kind == core.Write {
		req.wordMask = cc.cfg.writeMask(req.byteMask)
	}
	req.arrive = r.I64()
	if req.kind == core.Read {
		kind := core.DoneKind(r.U8())
		serial := r.U64()
		if kind != core.DoneFill {
			r.Fail("memctrl: read completion tag kind %d", kind)
		} else if r.Err() == nil {
			d, ok := fillResolve(serial)
			if !ok {
				r.Fail("memctrl: no in-flight miss for line %#x", serial)
			}
			req.done = d
		}
	}
	req.activated = r.Bool()
	req.falseHit = r.Bool()
	req.mark = r.I64()
	for i := range req.brk {
		req.brk[i] = r.I64()
	}
	if req.mark < req.arrive {
		r.Fail("memctrl: attribution mark %d before arrival %d", req.mark, req.arrive)
	}
	g := cc.cfg.Geom
	if req.loc.Channel != cc.idx || req.loc.Rank < 0 || req.loc.Rank >= g.Ranks ||
		req.loc.Bank < 0 || req.loc.Bank >= g.Banks || req.loc.Row < 0 || req.loc.Row >= g.Rows {
		r.Fail("memctrl: request location %+v out of range on channel %d", req.loc, cc.idx)
	}
	return req
}

// RestoreState decodes a SaveState payload into temporaries and returns a
// commit that installs it; on error the controller is untouched.
func (c *Controller) RestoreState(r *checkpoint.Reader, fillResolve func(lineID uint64) (core.Done, bool)) (func(), error) {
	lastMem := r.I64()
	type chanState struct {
		chCommit                func()
		readQ, writeQ, forwards []*request
		drain                   bool
		hitCount                []int
		nextWake                int64
		lowPowerEngine
		mitigationEngine
	}
	states := make([]chanState, len(c.chans))
	for i, cc := range c.chans {
		st := &states[i]
		chCommit, err := cc.ch.RestoreState(r)
		if err != nil {
			return nil, err
		}
		st.chCommit = chCommit
		queue := func(kind string, limit int) []*request {
			n := r.Count()
			if n > limit {
				r.Fail("memctrl: %s queue %d of %d", kind, n, limit)
				n = 0
			}
			q := make([]*request, n)
			for j := range q {
				q[j] = cc.restoreReq(r, fillResolve)
			}
			return q
		}
		st.readQ = queue("read", c.cfg.ReadQ)
		st.writeQ = queue("write", c.cfg.WriteQ)
		st.forwards = queue("forward", math.MaxInt)
		st.drain = r.Bool()
		st.hitCount = make([]int, c.cfg.Geom.Ranks*c.cfg.Geom.Banks)
		for j := range st.hitCount {
			st.hitCount[j] = r.Int()
		}
		st.lastWork = make([]int64, c.cfg.Geom.Ranks)
		for j := range st.lastWork {
			st.lastWork[j] = r.I64()
		}
		st.nextWake = r.I64()
		if len(st.forwards) > 0 && st.nextWake != 0 {
			r.Fail("memctrl: channel %d has forwards pending under an armed wake %d", i, st.nextWake)
		}
		st.rfmPending = r.Bool()
		st.rfmRank = r.Int()
		st.rfmBank = r.Int()
		st.alertUntil = r.I64()
		if st.rfmPending && (st.rfmRank < 0 || st.rfmRank >= c.cfg.Geom.Ranks ||
			st.rfmBank < 0 || st.rfmBank >= c.cfg.Geom.Banks) {
			r.Fail("memctrl: pending RFM target rank %d bank %d out of range", st.rfmRank, st.rfmBank)
		}
		if st.rfmPending && c.cfg.MitThreshold <= 0 {
			r.Fail("memctrl: pending RFM with mitigation disabled")
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() {
		c.lastMem = lastMem
		c.nextMemAt = c.CPUAt(lastMem + 1)
		for i, cc := range c.chans {
			st := &states[i]
			st.chCommit()
			cc.forwards = st.forwards
			cc.drain = st.drain
			cc.nextWake = st.nextWake
			cc.lowPowerEngine, cc.mitigationEngine = st.lowPowerEngine, st.mitigationEngine
			clear(cc.refPending)
			cc.freeReq = nil
			// Rebuild the bank index against the restored open rows
			// (forwarded reads are never queued — they bypassed push on
			// enqueue).
			for bi := range cc.banks {
				cc.banks[bi].q = [2][]*request{}
				cc.banks[bi].same = [2]int{}
				cc.banks[bi].hits = st.hitCount[bi]
			}
			cc.seq, cc.n, cc.nonEmpty = 0, [2]int{}, [2]uint64{}
			// Every cached decision predates the restored lists and open
			// rows: all banks are stale (also the ones nothing is pushed
			// to), and the next settle rebuilds every candidate set.
			cc.stale = 1<<uint(len(cc.banks)) - 1
			for ri := range cc.rankCount {
				cc.rankCount[ri] = 0
			}
			for _, req := range st.readQ {
				cc.push(req)
			}
			for _, req := range st.writeQ {
				cc.push(req)
			}
		}
		c.settleWake()
	}, nil
}
