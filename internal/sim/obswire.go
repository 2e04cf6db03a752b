package sim

import (
	"fmt"

	"pradram/internal/obs"
)

// This file wires a System into the observability layer (internal/obs):
// ObsConfig selects what telemetry a run carries, attachObs builds the
// recorder and event log and registers the sim-level probes, and the Run
// loop in sim.go ticks the recorder on epoch boundaries. Every probe is a
// read-only view over counters the simulator maintains anyway, so a run
// with telemetry attached produces bit-identical Results to one without
// (the determinism suite asserts this).

// ObsConfig selects which parts of the telemetry layer a run carries. The
// zero value disables everything and adds only a nil check per simulated
// cycle to the hot loop.
type ObsConfig struct {
	// EpochCycles is the recorder sampling period in DRAM cycles (the
	// paper's numbers are all per-memory-cycle, so epochs are defined in
	// the memory clock domain even though the sim loop runs on the CPU
	// clock). 0 disables the epoch time-series recorder.
	EpochCycles int64

	// EventLevel enables the structured event trace at the given
	// verbosity; obs.LevelOff (the zero value) disables it.
	EventLevel obs.Level
}

func (o ObsConfig) enabled() bool {
	return o.EpochCycles > 0 || o.EventLevel != obs.LevelOff
}

// attachObs builds the recorder and event log requested by cfg.Obs and
// registers probes across every substrate. Called once from New, after the
// controller, hierarchy, and cores exist.
func (s *System) attachObs() {
	o := s.cfg.Obs
	if o.EventLevel != obs.LevelOff {
		s.ev = obs.NewEventLog(obs.DefaultEventCap, o.EventLevel)
	}
	if o.EpochCycles > 0 {
		s.rec = obs.NewRecorder(o.EpochCycles)
	}
	s.ctrl.AttachObs(s.rec, s.ev)
	s.hier.Events = s.ev
	if s.rec == nil {
		return
	}

	// Cache-hierarchy probes: demand stream, writeback traffic, and the
	// DBI case study. dirty_words_overflow surfaces Hist clamping (it
	// should stay 0; a nonzero epoch means the histogram range is wrong).
	rec, h := s.rec, s.hier
	rec.Counter("l1_miss", func() int64 { return h.Stats.L1Misses })
	rec.Counter("l2_hit", func() int64 { return h.Stats.L2Hits })
	rec.Counter("l2_miss", func() int64 { return h.Stats.L2Misses })
	rec.Counter("writebacks", func() int64 { return h.Stats.Writebacks })
	rec.Counter("dirty_bytes", func() int64 { return h.Stats.DirtyBytes })
	rec.Counter("dbi_proactive", func() int64 { return h.Stats.DBIProactive })
	rec.Counter("dirty_words_overflow", func() int64 { return h.Stats.DirtyWords.Overflow })

	// Per-core progress: retired-instruction deltas give a per-epoch IPC
	// time-series when divided by the epoch's CPU cycles.
	for i, c := range s.cores {
		c := c
		rec.Counter(fmt.Sprintf("core%d_retired", i), func() int64 { return c.Retired })
	}
}

// Recorder returns the epoch time-series recorder, or nil when
// Config.Obs.EpochCycles was 0.
func (s *System) Recorder() *obs.Recorder { return s.rec }

// Events returns the structured event log, or nil when tracing was off.
// A nil *obs.EventLog is safe to pass around: all its methods degrade to
// "tracing disabled".
func (s *System) Events() *obs.EventLog { return s.ev }
