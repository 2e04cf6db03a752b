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
// entries; each restored read claims its entry's fill through the claim
// function RestoreState is given (the hierarchy's restored Fills).

// reqState states one request's saved fields once. A read's completion
// travels as its fill tag, and restoring claims that fill back; a write's
// projected mask is derived from its byte mask.
func (cc *chanCtl) reqState(k *checkpoint.Codec, req *request, claim func(lineID uint64) (core.Done, error)) {
	checkpoint.U8(k, &req.kind)
	if req.kind != core.Read && req.kind != core.Write {
		k.Fail("memctrl: request kind %d", req.kind)
	}
	k.Int(&req.loc.Channel)
	k.Int(&req.loc.Rank)
	k.Int(&req.loc.Bank)
	k.Int(&req.loc.Row)
	k.Int(&req.loc.Col)
	checkpoint.Word(k, &req.byteMask)
	k.I64(&req.arrive)
	if req.kind == core.Read {
		checkpoint.U8(k, &req.done.Tag.Kind)
		k.U64(&req.done.Tag.Serial)
		if req.done.Tag.Kind != core.DoneFill {
			k.Fail("memctrl: read completion tag kind %d", req.done.Tag.Kind)
		} else if k.Restores() && k.Err() == nil {
			d, err := claim(req.done.Tag.Serial)
			if err != nil {
				k.Fail("memctrl: read of line %#x: %v", req.done.Tag.Serial, err)
			}
			req.done = d
		}
	}
	if k.Restores() {
		req.wordMask = core.FullMask
		if req.kind == core.Write {
			req.wordMask = cc.cfg.writeMask(req.byteMask)
		}
	}
	k.Bool(&req.activated)
	k.Bool(&req.falseHit)
	// Attribution state (latency.go), ckptFormat v4: the sweep frontier
	// and the blame accumulated so far, so a restored run's completed
	// requests report the same breakdowns as the monolithic run's.
	k.I64(&req.mark)
	for i := range req.brk {
		k.I64(&req.brk[i])
	}
	if req.mark < req.arrive {
		k.Fail("memctrl: attribution mark %d before arrival %d", req.mark, req.arrive)
	}
	g := cc.cfg.Geom
	if req.loc.Channel != cc.idx || req.loc.Rank < 0 || req.loc.Rank >= g.Ranks ||
		req.loc.Bank < 0 || req.loc.Bank >= g.Banks || req.loc.Row < 0 || req.loc.Row >= g.Rows {
		k.Fail("memctrl: request location %+v out of range on channel %d", req.loc, cc.idx)
	}
}

// queue states a request list in order and refuses one longer than limit.
func (cc *chanCtl) queue(k *checkpoint.Codec, q []*request, kind string, limit int, claim func(uint64) (core.Done, error)) []*request {
	q = checkpoint.Slice(k, q, func(p **request) {
		if *p == nil {
			*p = &request{}
		}
		cc.reqState(k, *p, claim)
	})
	if len(q) > limit {
		k.Fail("memctrl: %s queue %d of %d", kind, len(q), limit)
	}
	return q
}

// state states one channel's saved fields once, in payload order: the DRAM
// channel, the read and write queues (returned, in arrival order: the bank
// index holds them), the forwards, and the engines' state.
func (cc *chanCtl) state(k *checkpoint.Codec, claim func(uint64) (core.Done, error)) (reads, writes []*request) {
	k.Part(cc.ch)
	reads = cc.queue(k, cc.queued(core.Read), "read", cc.cfg.ReadQ, claim)
	writes = cc.queue(k, cc.queued(core.Write), "write", cc.cfg.WriteQ, claim)
	cc.forwards = cc.queue(k, cc.forwards, "forward", math.MaxInt, claim)
	k.Bool(&cc.drain)
	for bi := range cc.banks {
		k.Int(&cc.banks[bi].hits)
	}
	for ri := range cc.lastWork {
		k.I64(&cc.lastWork[ri])
	}
	k.I64(&cc.nextWake)
	if len(cc.forwards) > 0 && cc.nextWake != 0 {
		k.Fail("memctrl: channel %d has forwards pending under an armed wake %d", cc.idx, cc.nextWake)
	}
	// Alert/RFM mitigation FSM (mitigation.go), ckptFormat v3: a restored
	// run must wait out an in-flight back-off and issue the pending RFM
	// exactly like the monolithic run.
	k.Bool(&cc.rfmPending)
	k.Int(&cc.rfmRank)
	k.Int(&cc.rfmBank)
	k.I64(&cc.alertUntil)
	if cc.rfmPending && (cc.rfmRank < 0 || cc.rfmRank >= cc.cfg.Geom.Ranks ||
		cc.rfmBank < 0 || cc.rfmBank >= cc.cfg.Geom.Banks) {
		k.Fail("memctrl: pending RFM target rank %d bank %d out of range", cc.rfmRank, cc.rfmBank)
	}
	if cc.rfmPending && cc.cfg.MitThreshold <= 0 {
		k.Fail("memctrl: pending RFM with mitigation disabled")
	}
	return reads, writes
}

// state states the controller's saved fields once: the DRAM clock, then
// every channel's. It returns each channel's read and write queues.
func (c *Controller) state(k *checkpoint.Codec, claim func(uint64) (core.Done, error)) [][2][]*request {
	k.I64(&c.lastMem)
	queues := make([][2][]*request, len(c.chans))
	for i, cc := range c.chans {
		queues[i][core.Read], queues[i][core.Write] = cc.state(k, claim)
	}
	return queues
}

// SaveState appends the controller's dynamic state.
func (c *Controller) SaveState(w *checkpoint.Writer) { c.state(checkpoint.Saving(w), nil) }

// RestoreState decodes a SaveState payload into a copy of the controller
// and returns a commit that installs it; on error the controller is
// untouched. claim rebinds each restored read (queued or forwarded) to the
// fill of the in-flight miss it serves.
func (c *Controller) RestoreState(r *checkpoint.Reader, claim func(lineID uint64) (core.Done, error)) (func(), error) {
	k := checkpoint.Restoring(r)
	t := &Controller{cfg: c.cfg, chans: make([]*chanCtl, len(c.chans))}
	for i, cc := range c.chans {
		t.chans[i] = &chanCtl{cfg: cc.cfg, ch: cc.ch, idx: cc.idx,
			requestEngine:  requestEngine{banks: make([]bankQ, len(cc.banks))},
			lowPowerEngine: lowPowerEngine{lastWork: make([]int64, len(cc.lastWork))}}
	}
	queues := t.state(k, claim)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() {
		k.Commit()
		c.lastMem = t.lastMem
		c.nextMemAt = c.CPUAt(t.lastMem + 1)
		for i, cc := range c.chans {
			tc := t.chans[i]
			cc.forwards, cc.drain, cc.nextWake = tc.forwards, tc.drain, tc.nextWake
			cc.lowPowerEngine, cc.mitigationEngine = tc.lowPowerEngine, tc.mitigationEngine
			clear(cc.refPending)
			cc.freeReq = nil
			// Rebuild the bank index against the restored open rows
			// (forwarded reads are never queued — they bypassed push on
			// enqueue).
			for bi := range cc.banks {
				b := &cc.banks[bi]
				b.q, b.same, b.hits = [2][]*request{}, [2]int{}, tc.banks[bi].hits
			}
			cc.seq, cc.n, cc.nonEmpty = 0, [2]int{}, [2]uint64{}
			// Every cached decision predates the restored lists and open
			// rows: all banks are stale (also the ones nothing is pushed
			// to), and the next settle rebuilds every candidate set.
			cc.stale = 1<<uint(len(cc.banks)) - 1
			clear(cc.rankCount)
			for _, q := range queues[i] {
				for _, req := range q {
					cc.push(req)
				}
			}
		}
		c.settleWake()
	}, nil
}
