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
// controller maintains anyway, so attaching telemetry can never perturb
// simulated numbers.

// CPUPerMem exposes the CPU-to-memory clock ratio (the sim layer converts
// its CPU-cycle clock into the DRAM epochs the recorder is configured in).
func (c *Controller) CPUPerMem() int64 { return c.cfg.CPUPerMem }

// AttachObs registers telemetry probes on rec and threads ev through the
// controller and its DRAM channels. Either argument may be nil. Call once,
// before the first Tick.
func (c *Controller) AttachObs(rec *obs.Recorder, ev *obs.EventLog) {
	for i, cc := range c.chans {
		cc.attachObs(rec, ev, i)
	}
	if rec == nil {
		return
	}

	// Channel-summed request counters: deltas of these per epoch give the
	// served bandwidth, row-hit rate, and false-hit rate time-series.
	sum := func(f func(*Stats) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, cc := range c.chans {
				n += f(&cc.stats)
			}
			return n
		}
	}
	rec.Counter("reads_served", sum(func(s *Stats) int64 { return s.ReadsServed }))
	rec.Counter("writes_served", sum(func(s *Stats) int64 { return s.WritesServed }))
	rec.Counter("row_hit_read", sum(func(s *Stats) int64 { return s.RowHitRead }))
	rec.Counter("row_hit_write", sum(func(s *Stats) int64 { return s.RowHitWrite }))
	rec.Counter("false_hit_read", sum(func(s *Stats) int64 { return s.FalseHitRead }))
	rec.Counter("false_hit_write", sum(func(s *Stats) int64 { return s.FalseHitWrite }))
	rec.Counter("acts_for_reads", sum(func(s *Stats) int64 { return s.ActsForReads }))
	rec.Counter("acts_for_writes", sum(func(s *Stats) int64 { return s.ActsForWrites }))
	// RowHammer mitigation (mitigation.go): alert and back-off overhead.
	rec.Counter("alerts", sum(func(s *Stats) int64 { return s.Alerts }))
	rec.Counter("alert_stall_cycles", sum(func(s *Stats) int64 { return s.AlertStallCycles }))

	// Latency accounting (latency.go): the always-on sums, and — only when
	// attribution is enabled — the per-component breakdown counters and the
	// percentile gauges over the channel-merged histograms.
	rec.Counter("read_lat_sum", sum(func(s *Stats) int64 { return s.ReadLatencySum }))
	rec.Counter("write_lat_sum", sum(func(s *Stats) int64 { return s.WriteLatencySum }))
	if c.cfg.LatBreak {
		for comp := LatComponent(0); comp < NumLatComponents; comp++ {
			comp := comp
			rec.Counter("readlat_"+comp.String(), sum(func(s *Stats) int64 { return s.ReadLatBreak[comp] }))
			rec.Counter("writelat_"+comp.String(), sum(func(s *Stats) int64 { return s.WriteLatBreak[comp] }))
		}
		quant := func(write bool, q float64) func() float64 {
			return func() float64 {
				var h stats.LogHist
				for _, cc := range c.chans {
					if write {
						h.Merge(&cc.stats.WriteLatHist)
					} else {
						h.Merge(&cc.stats.ReadLatHist)
					}
				}
				return h.Quantile(q)
			}
		}
		rec.Gauge("readlat_p50", quant(false, 0.50))
		rec.Gauge("readlat_p95", quant(false, 0.95))
		rec.Gauge("readlat_p99", quant(false, 0.99))
		rec.Gauge("readlat_p999", quant(false, 0.999))
		rec.Gauge("writelat_p50", quant(true, 0.50))
		rec.Gauge("writelat_p99", quant(true, 0.99))
	}

	// Partial-activation fraction-opened histogram (Figure 11 over time):
	// act_gran_g counts activations that opened g/8 of a row this epoch.
	for g := 1; g <= 8; g++ {
		g := g
		rec.Counter(fmt.Sprintf("act_gran_%d", g), func() int64 {
			var n int64
			for _, cc := range c.chans {
				n += cc.ch.Stats.ActsByGranularity[g]
			}
			return n
		})
	}
	// Refresh-management and power-down FSM counters (DESIGN.md §4f). The
	// rank-cycle residency counters are lazily accrued, so epoch deltas
	// are exact only after the recorder's CatchUp hook has run; the sim
	// layer samples after CatchUp.
	dsum := func(f func(*dram.Stats) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, cc := range c.chans {
				n += f(&cc.ch.Stats)
			}
			return n
		}
	}
	rec.Counter("refreshes", dsum(func(s *dram.Stats) int64 { return s.Refreshes }))
	rec.Counter("perbank_refreshes", dsum(func(s *dram.Stats) int64 { return s.PerBankRefreshes }))
	rec.Counter("postponed_refreshes", dsum(func(s *dram.Stats) int64 { return s.PostponedRefreshes }))
	rec.Counter("pulledin_refreshes", dsum(func(s *dram.Stats) int64 { return s.PulledInRefreshes }))
	rec.Counter("selfref_entries", dsum(func(s *dram.Stats) int64 { return s.SelfRefEntries }))
	rec.Counter("powerdown_rank_cycles", dsum(func(s *dram.Stats) int64 { return s.PowerDownCycles }))
	rec.Counter("activepd_rank_cycles", dsum(func(s *dram.Stats) int64 { return s.ActivePDCycles }))
	rec.Counter("slowpd_rank_cycles", dsum(func(s *dram.Stats) int64 { return s.SlowPDCycles }))
	rec.Counter("selfref_rank_cycles", dsum(func(s *dram.Stats) int64 { return s.SelfRefCycles }))
	rec.Counter("rfms", dsum(func(s *dram.Stats) int64 { return s.RFMs }))
	rec.Counter("row_spills", dsum(func(s *dram.Stats) int64 { return s.RowSpills }))

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

// attachObs wires one channel: its event scope, the command-level DRAM
// trace bridge, queue-depth gauges, and the per-bank command counters.
func (cc *chanCtl) attachObs(rec *obs.Recorder, ev *obs.EventLog, idx int) {
	cc.ev = ev
	cc.scope = fmt.Sprintf("memctrl.ch%d", idx)
	if ev.Enabled(obs.LevelCmd) {
		scope := fmt.Sprintf("dram.ch%d", idx)
		cc.ch.Trace = func(e dram.CmdEvent) {
			ev.Emit(obs.Event{
				Cycle: e.At, Level: obs.LevelCmd, Scope: scope,
				Kind: e.Kind.String(), Detail: e.String(),
			})
		}
	}
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
			r, b := r, b
			name := fmt.Sprintf("%s_r%d_b%d", p, r, b)
			rec.Counter(name+"_act", func() int64 { return cc.ch.BankCounts(r, b).Act })
			rec.Counter(name+"_pre", func() int64 { return cc.ch.BankCounts(r, b).Pre })
			rec.Counter(name+"_rd", func() int64 { return cc.ch.BankCounts(r, b).Rd })
			rec.Counter(name+"_wr", func() int64 { return cc.ch.BankCounts(r, b).Wr })
			if cc.cfg.LatBreak {
				hb := r*geom.Banks + b
				rec.Gauge(name+"_rdlat_p99", func() float64 { return cc.latHistBank[hb].Quantile(0.99) })
			}
		}
	}
}
