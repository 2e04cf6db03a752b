package memctrl

import (
	"fmt"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/obs"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// This file wires the controller into the observability layer: AttachObs
// registers the epoch-recorder probes (per-bank command counts, queue
// depths, row-hit and false-hit counters, activation-granularity
// histogram, energy components) and connects the structured event log.
// Everything registered here is a read-only view over counters the
// controller maintains anyway, or over the command stream (the per-bank
// counts), so attaching telemetry can never perturb simulated numbers.

// AttachObs registers telemetry probes on rec and threads ev through the
// controller and its DRAM channels. Either argument may be nil. Call once,
// before the first Tick.
func (c *Controller) AttachObs(rec *obs.Recorder, ev *obs.EventLog) {
	// Per-bank command counts come from the command stream, so a run
	// without a recorder does no per-bank work. ACT, RD, WR and PRE are the
	// first four kinds; an auto-precharge arrives as a PRE, and REF, RFM and
	// CKE events are not counted.
	tally := make([][]bankCmds, len(c.chans))
	if rec != nil {
		banks := c.cfg.Geom.Banks
		for i := range tally {
			tally[i] = make([]bankCmds, c.cfg.Geom.Ranks*banks)
		}
		c.OnCommand(func(ch int, e dram.CmdEvent) {
			if e.Kind <= dram.CmdPre {
				tally[ch][e.Rank*banks+e.Bank][e.Kind]++
			}
		})
	}
	for i, cc := range c.chans {
		cc.attachObs(rec, ev, i, tally[i])
	}
	if ev.Enabled(obs.LevelCmd) {
		scopes := make([]string, len(c.chans))
		for i := range scopes {
			scopes[i] = fmt.Sprintf("dram.ch%d", i)
		}
		c.OnCommand(func(ch int, e dram.CmdEvent) {
			ev.Emit(obs.Event{
				Cycle: e.At, Level: obs.LevelCmd, Scope: scopes[ch],
				Kind: e.Kind.String(), Detail: e.String(),
			})
		})
	}
	if rec == nil {
		return
	}

	// Request counters, totalled over the channels: deltas of these per
	// epoch give the served bandwidth, row-hit rate, and false-hit rate
	// time-series.
	st := &c.stats
	rec.Counter("reads_served", func() int64 { return st.ReadsServed })
	rec.Counter("writes_served", func() int64 { return st.WritesServed })
	rec.Counter("row_hit_read", func() int64 { return st.RowHitRead })
	rec.Counter("row_hit_write", func() int64 { return st.RowHitWrite })
	rec.Counter("false_hit_read", func() int64 { return st.FalseHitRead })
	rec.Counter("false_hit_write", func() int64 { return st.FalseHitWrite })
	rec.Counter("acts_for_reads", func() int64 { return st.ActsForReads })
	rec.Counter("acts_for_writes", func() int64 { return st.ActsForWrites })
	// RowHammer mitigation (mitigation.go): alert and back-off overhead.
	rec.Counter("alerts", func() int64 { return st.Alerts })
	rec.Counter("alert_stall_cycles", func() int64 { return st.AlertStallCycles })

	// Latency accounting (latency.go): the always-on sums, and — only when
	// attribution is enabled — the per-component breakdown counters and the
	// percentile gauges over the controller's histograms.
	rec.Counter("read_lat_sum", func() int64 { return st.ReadLatencySum })
	rec.Counter("write_lat_sum", func() int64 { return st.WriteLatencySum })
	if c.cfg.LatBreak {
		for comp := LatComponent(0); comp < NumLatComponents; comp++ {
			comp := comp
			rec.Counter("readlat_"+comp.String(), func() int64 { return st.ReadLatBreak[comp] })
			rec.Counter("writelat_"+comp.String(), func() int64 { return st.WriteLatBreak[comp] })
		}
		quant := func(h *stats.LogHist, q float64) func() float64 {
			return func() float64 { return h.Quantile(q) }
		}
		rec.Gauge("readlat_p50", quant(&st.ReadLatHist, 0.50))
		rec.Gauge("readlat_p95", quant(&st.ReadLatHist, 0.95))
		rec.Gauge("readlat_p99", quant(&st.ReadLatHist, 0.99))
		rec.Gauge("readlat_p999", quant(&st.ReadLatHist, 0.999))
		rec.Gauge("writelat_p50", quant(&st.WriteLatHist, 0.50))
		rec.Gauge("writelat_p99", quant(&st.WriteLatHist, 0.99))
	}

	// Partial-activation fraction-opened histogram (Figure 11 over time):
	// act_gran_g counts activations that opened g/8 of a row this epoch.
	dev := &c.dev
	for g := 1; g <= 8; g++ {
		g := g
		rec.Counter(fmt.Sprintf("act_gran_%d", g), func() int64 { return dev.ActsByGranularity[g] })
	}
	// Refresh-management and power-down FSM counters (DESIGN.md §4f). The
	// rank-cycle residency counters are lazily accrued, so epoch deltas
	// are exact only after the recorder's CatchUp hook has run; the sim
	// layer samples after CatchUp.
	rec.Counter("refreshes", func() int64 { return dev.Refreshes })
	rec.Counter("perbank_refreshes", func() int64 { return dev.PerBankRefreshes })
	rec.Counter("postponed_refreshes", func() int64 { return dev.PostponedRefreshes })
	rec.Counter("pulledin_refreshes", func() int64 { return dev.PulledInRefreshes })
	rec.Counter("selfref_entries", func() int64 { return dev.SelfRefEntries })
	rec.Counter("powerdown_rank_cycles", func() int64 { return dev.PowerDownCycles })
	rec.Counter("activepd_rank_cycles", func() int64 { return dev.ActivePDCycles })
	rec.Counter("slowpd_rank_cycles", func() int64 { return dev.SlowPDCycles })
	rec.Counter("selfref_rank_cycles", func() int64 { return dev.SelfRefCycles })
	rec.Counter("rfms", func() int64 { return dev.RFMs })

	// Energy components: activate vs background (vs refresh) attribution
	// per epoch, plus the total.
	energy := func(comp power.Component) func() float64 {
		return func() float64 {
			var e float64
			for _, cc := range c.chans {
				e += cc.acc.Component(comp)
			}
			return e
		}
	}
	rec.CounterF("energy_actpre_pj", energy(power.CompActPre))
	rec.CounterF("energy_bg_pj", energy(power.CompBG))
	rec.CounterF("energy_ref_pj", energy(power.CompRef))
	rec.CounterF("energy_total_pj", func() float64 {
		var e float64
		for _, cc := range c.chans {
			e += cc.acc.TotalEnergy()
		}
		return e
	})
}

// OnCommand subscribes fn to every command the DRAM channels accept, in
// issue order per channel (ch is the channel index); subscribers chain, in
// subscription order. fn must not retain the event past the call. The
// command-level event log (-events cmd) and the per-bank telemetry
// counters are such subscribers.
func (c *Controller) OnCommand(fn func(ch int, e dram.CmdEvent)) {
	for i, cc := range c.chans {
		prev := cc.ch.Trace
		cc.ch.Trace = func(e dram.CmdEvent) {
			if prev != nil {
				prev(e)
			}
			fn(i, e)
		}
	}
}

// bankCmds counts one bank's commands, indexed by dram.CmdKind (ACT, RD,
// WR, PRE).
type bankCmds [dram.CmdPre + 1]int64

// attachObs wires one channel: its event scope, queue-depth gauges, and the
// per-bank command counters over tally (rank*Banks+bank).
func (cc *chanCtl) attachObs(rec *obs.Recorder, ev *obs.EventLog, idx int, tally []bankCmds) {
	cc.ev = ev
	cc.scope = fmt.Sprintf("memctrl.ch%d", idx)
	if rec == nil {
		return
	}
	p := fmt.Sprintf("ch%d", idx)
	rec.Gauge(p+"_readq", func() float64 { return float64(cc.n[core.Read]) })
	rec.Gauge(p+"_writeq", func() float64 { return float64(cc.n[core.Write]) })
	rec.Gauge(p+"_drain", func() float64 {
		if cc.drain {
			return 1
		}
		return 0
	})
	rec.Gauge(p+"_open_banks", func() float64 { return float64(cc.ch.OpenBankCount()) })
	geom := cc.cfg.Geom
	for r := 0; r < geom.Ranks; r++ {
		for b := 0; b < geom.Banks; b++ {
			hb := r*geom.Banks + b
			name := fmt.Sprintf("%s_r%d_b%d", p, r, b)
			rec.Counter(name+"_act", func() int64 { return tally[hb][dram.CmdAct] })
			rec.Counter(name+"_pre", func() int64 { return tally[hb][dram.CmdPre] })
			rec.Counter(name+"_rd", func() int64 { return tally[hb][dram.CmdRead] })
			rec.Counter(name+"_wr", func() int64 { return tally[hb][dram.CmdWrite] })
			if cc.cfg.LatBreak {
				rec.Gauge(name+"_rdlat_p99", func() float64 { return cc.latHistBank[hb].Quantile(0.99) })
			}
		}
	}
}
