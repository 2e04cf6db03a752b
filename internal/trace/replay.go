package trace

import (
	"fmt"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/stats"
)

// ReplayResult carries the metrics of one trace replay.
type ReplayResult struct {
	Cycles    int64 // CPU cycles until the last request completed
	Reads     int64
	Writes    int64
	Ctrl      memctrl.Stats
	Dev       dram.Stats
	Energy    power.Breakdown
	AvgReadNs float64
}

// AvgPowerMW returns the average DRAM power over the replay's CPU time.
func (r ReplayResult) AvgPowerMW() float64 {
	return stats.Ratio(r.Energy.Total(), float64(r.Cycles)*memctrl.CPUCycleNs)
}

// ReplayOpts tunes the replay driver.
type ReplayOpts struct {
	// NoSkip disables event-driven fast-forwarding between DRAM events
	// and record arrivals, ticking every CPU cycle as the original driver
	// did. Results are bit-identical either way; the flag is a debugging
	// escape hatch (pratrace -noskip).
	NoSkip bool
}

// ReplayStream feeds a recorded request stream into a fresh controller
// built from cfg, preserving arrival times (with backpressure allowed to
// slip them), and runs until every request completes. Request ordering and
// addresses are exactly those of the capture; only the scheme/policy under
// test differs — the fast what-if path. A captured Trace replays through
// its Stream method, a trace file through OpenV2's decoding stream.
//
// The driver holds a one-record lookahead window, never a materialized
// slice, so memory use is O(1) in trace length and the only per-record
// work is the varint decode and the pooled controller enqueue — the steady
// state allocates nothing per record (enforced by TestReplayStreamAllocs
// and the -ingest benchgate).
func ReplayStream(s Stream, cfg memctrl.Config, opt ReplayOpts) (ReplayResult, error) {
	ctrl, err := memctrl.New(cfg)
	if err != nil {
		return ReplayResult{}, err
	}
	var res ReplayResult
	outstanding := 0
	done := core.Untagged(func(int64) { outstanding-- })
	cycle := int64(0)

	// One-record lookahead: cur is the next record to issue (valid while
	// have). Arrival times are non-decreasing (streams enforce it), so
	// cur.At doubles as the arrival horizon for the skip loop.
	var cur Record
	have := s.Next(&cur)

	// A generous stall bound: replays are short, but a scheduling bug must
	// not hang the caller. The slice replay budgeted last-arrival plus
	// 2000 ticks per record plus a flat 10M; streaming accumulates the
	// same budget as records are read (it converges to the identical bound
	// by end of stream, and only the error path observes it).
	horizon := int64(0)
	budget := int64(10_000_000)
	if have {
		horizon = cur.At
		budget += 2000
	}
	ticks := int64(0)

	for have || outstanding > 0 || ctrl.Pending() {
		if ticks > horizon+budget {
			return res, fmt.Errorf("trace: replay stalled at cycle %d after %d executed ticks (%d outstanding)",
				cycle, ticks, outstanding)
		}
		ticks++
		blocked := false
		for have && cur.At <= cycle {
			if cur.Write {
				if !ctrl.Write(cur.Addr, cur.Mask) {
					blocked = true
					break // queue full: retry next cycle (time slips)
				}
				res.Writes++
			} else {
				if !ctrl.Read(cur.Addr, done) {
					blocked = true
					break
				}
				outstanding++
				res.Reads++
			}
			have = s.Next(&cur)
			if have {
				horizon = cur.At
				budget += 2000
			}
		}
		ctrl.Tick(cycle)
		cycle++
		// Fast-forward to the controller's next event or the next record
		// arrival, whichever is sooner. A refused record would be retried,
		// and refused again, on every cycle up to the next event — nothing
		// frees a queue slot between events — so unless this tick freed one,
		// those refusals are booked in one step and the retries skipped.
		// Once all work has drained the loop is about to exit, and jumping
		// (to the next refresh, say) would inflate the cycle count.
		if !opt.NoSkip && (have || outstanding > 0 || ctrl.Pending()) {
			next := ctrl.NextEvent(cycle - 1)
			if blocked {
				if next > cycle && !ctrl.Refused(cur.Addr, cur.Write, next-cycle) {
					next = cycle
				}
			} else if have && cur.At < next {
				next = cur.At
			}
			if next > cycle {
				ctrl.SkipTo(next)
				cycle = next
			}
		}
	}
	if err := s.Err(); err != nil {
		return res, fmt.Errorf("trace: replay decode: %w", err)
	}
	ctrl.CatchUp(cycle)
	res.Cycles = cycle
	res.Ctrl = ctrl.Stats()
	res.Dev = ctrl.DeviceStats()
	res.Energy = ctrl.Energy()
	res.AvgReadNs = float64(res.Ctrl.ReadLatencySum) / float64(max(res.Ctrl.ReadsServed, 1)) * cfg.Timing.TCKNs()
	return res, nil
}
