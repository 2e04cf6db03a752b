package sim

import (
	"pradram/internal/cache"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// Result carries everything a run measured. Derived metrics are methods so
// experiment code and tests share one definition.
type Result struct {
	Workload string
	Scheme   memctrl.Scheme
	Policy   memctrl.Policy
	DBI      bool
	Apps     []string

	Cycles  int64
	CoreIPC []float64

	Ctrl   memctrl.Stats
	Dev    dram.Stats
	Cache  cache.Stats
	Energy power.Breakdown

	// Cal is the power-model calibration the run was configured with
	// (Config.PowerCal); EnergyBand and PowerBandMW apply it. A zero Cal
	// (e.g. a Result decoded from an old cache entry) behaves as "none".
	Cal power.Calibration
}

// calibration returns the effective calibration, defaulting a zero value
// to the identity so Results from older cache entries keep working.
func (r Result) calibration() power.Calibration {
	if r.Cal.Name == "" {
		return power.CalNone()
	}
	return r.Cal
}

// RuntimeNs returns the run's wall time in DRAM-visible nanoseconds.
func (r Result) RuntimeNs() float64 { return float64(r.Cycles) * CPUCycleNs }

// AvgPowerMW returns the average total DRAM power over the run.
func (r Result) AvgPowerMW() float64 {
	return stats.Ratio(r.Energy.Total(), r.RuntimeNs())
}

// TotalEnergyPJ returns total DRAM energy.
func (r Result) TotalEnergyPJ() float64 { return r.Energy.Total() }

// EDP returns the energy-delay product in pJ*ns (comparisons are always
// against a baseline, so the unit cancels).
func (r Result) EDP() float64 { return r.Energy.Total() * r.RuntimeNs() }

// EnergyBand returns the calibrated total-energy band in pJ: the nominal
// value applies each component's nominal correction factor, and the
// min/max ends combine the per-component extremes (a conservative band;
// see power.Calibration). Under the "none" calibration all three equal
// TotalEnergyPJ().
func (r Result) EnergyBand() power.Band {
	return r.calibration().Total(r.Energy)
}

// PowerBandMW returns the calibrated average-power band over the run.
func (r Result) PowerBandMW() power.Band {
	ns := r.RuntimeNs()
	if ns == 0 {
		return power.Band{}
	}
	return r.EnergyBand().Scale(1 / ns)
}

// LowPowerResidency returns the fraction of rank-cycles spent with CKE
// low (any power-down state or self-refresh) during the measured window.
func (r Result) LowPowerResidency() float64 {
	return stats.Ratio(float64(r.Dev.LowPowerCycles()), float64(r.Dev.TotalRankCycles()))
}

// SelfRefreshResidency returns the fraction of rank-cycles spent in
// self-refresh.
func (r Result) SelfRefreshResidency() float64 {
	return stats.Ratio(float64(r.Dev.SelfRefCycles), float64(r.Dev.TotalRankCycles()))
}

// RowHitRateRead returns the fraction of read requests served from an open
// row (false hits count as misses, as in Section 5.2.1).
func (r Result) RowHitRateRead() float64 {
	return stats.Ratio(float64(r.Ctrl.RowHitRead), float64(r.Ctrl.ReadsServed))
}

// RowHitRateWrite is the write-request equivalent.
func (r Result) RowHitRateWrite() float64 {
	return stats.Ratio(float64(r.Ctrl.RowHitWrite), float64(r.Ctrl.WritesServed))
}

// RowHitRateTotal combines reads and writes.
func (r Result) RowHitRateTotal() float64 {
	return stats.Ratio(float64(r.Ctrl.RowHitRead+r.Ctrl.RowHitWrite),
		float64(r.Ctrl.ReadsServed+r.Ctrl.WritesServed))
}

// FalseHitRateRead returns false read hits per read request.
func (r Result) FalseHitRateRead() float64 {
	return stats.Ratio(float64(r.Ctrl.FalseHitRead), float64(r.Ctrl.ReadsServed))
}

// FalseHitRateWrite returns false write hits per write request.
func (r Result) FalseHitRateWrite() float64 {
	return stats.Ratio(float64(r.Ctrl.FalseHitWrite), float64(r.Ctrl.WritesServed))
}

// ReadTrafficShare returns reads / (reads + writes) at the DRAM interface.
func (r Result) ReadTrafficShare() float64 {
	return stats.Ratio(float64(r.Ctrl.ReadsServed), float64(r.Ctrl.ReadsServed+r.Ctrl.WritesServed))
}

// ReadActShare returns the fraction of row activations caused by reads.
func (r Result) ReadActShare() float64 {
	return stats.Ratio(float64(r.Ctrl.ActsForReads), float64(r.Ctrl.ActsForReads+r.Ctrl.ActsForWrites))
}

// GranularityShare returns the proportion of activations at g/8 granularity
// (Figure 11).
func (r Result) GranularityShare(g int) float64 {
	if g < 1 || g > 8 {
		return 0
	}
	return stats.Ratio(float64(r.Dev.ActsByGranularity[g]), float64(r.Dev.Activations()))
}

// AvgReadLatencyNs returns the mean DRAM read latency (arrival to data) in
// nanoseconds.
func (r Result) AvgReadLatencyNs() float64 {
	return stats.Ratio(float64(r.Ctrl.ReadLatencySum), float64(r.Ctrl.ReadsServed)) * MemCycleNs
}

// AvgWriteLatencyNs returns the mean DRAM write latency (arrival to the
// end of the write burst) in nanoseconds.
func (r Result) AvgWriteLatencyNs() float64 {
	return stats.Ratio(float64(r.Ctrl.WriteLatencySum), float64(r.Ctrl.WritesServed)) * MemCycleNs
}

// ReadLatShare returns component comp's share of the total read latency —
// the breakdown columns of the latbreak experiment. Zero unless the run
// had Config.LatBreak set.
func (r Result) ReadLatShare(comp memctrl.LatComponent) float64 {
	return stats.Ratio(float64(r.Ctrl.ReadLatBreak[comp]), float64(r.Ctrl.ReadLatBreak.Sum()))
}

// WriteLatShare is the write-request equivalent of ReadLatShare.
func (r Result) WriteLatShare(comp memctrl.LatComponent) float64 {
	return stats.Ratio(float64(r.Ctrl.WriteLatBreak[comp]), float64(r.Ctrl.WriteLatBreak.Sum()))
}

// ReadLatQuantileNs returns the q-quantile of the read-latency
// distribution in nanoseconds (log-bucketed, so an upper bound with
// power-of-two resolution; see stats.LogHist). Zero unless the run had
// Config.LatBreak set.
func (r Result) ReadLatQuantileNs(q float64) float64 {
	return r.Ctrl.ReadLatHist.Quantile(q) * MemCycleNs
}

// WriteLatQuantileNs is the write-request equivalent of ReadLatQuantileNs.
func (r Result) WriteLatQuantileNs(q float64) float64 {
	return r.Ctrl.WriteLatHist.Quantile(q) * MemCycleNs
}

// SumIPC returns the sum of per-core IPCs.
func (r Result) SumIPC() float64 {
	var s float64
	for _, v := range r.CoreIPC {
		s += v
	}
	return s
}

// WeightedSpeedup computes Equation 3 against per-app alone IPCs.
func (r Result) WeightedSpeedup(alone map[string]float64) float64 {
	var ws float64
	for i, app := range r.Apps {
		if a := alone[app]; a > 0 && i < len(r.CoreIPC) {
			ws += r.CoreIPC[i] / a
		}
	}
	return ws
}

// MaxSlowdown returns the worst per-core slowdown relative to the alone
// IPCs — the standard multiprogrammed fairness metric (larger is worse;
// 1.0 means no core was slowed at all).
func (r Result) MaxSlowdown(alone map[string]float64) float64 {
	var worst float64
	for i, app := range r.Apps {
		if a := alone[app]; a > 0 && i < len(r.CoreIPC) && r.CoreIPC[i] > 0 {
			if s := a / r.CoreIPC[i]; s > worst {
				worst = s
			}
		}
	}
	return worst
}
