package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/power"
	"pradram/internal/sim"
	"pradram/internal/stats"
	"pradram/internal/trace"
)

// best keeps the cheaper of two timings: interference from the shared host
// only ever adds time, so the fastest repeat is the closest to the code's
// own cost.
func best(a, b time.Duration) time.Duration {
	if a == 0 || b < a {
		return b
	}
	return a
}

// modelMetrics emits the simulated statistics: they have no better or
// worse, but they repeat exactly, so two commits compare exactly.
func modelMetrics(m metrics, res *sim.Result) {
	if len(res.CoreIPC) > 0 {
		m.set("cpu.ipc_sum", res.SumIPC())
		cs := res.Cache
		m.set("cache.l1_miss_rate", stats.Ratio(float64(cs.L1Misses), float64(cs.L1Hits+cs.L1Misses)))
		m.set("cache.l2_miss_rate", stats.Ratio(float64(cs.L2Misses), float64(cs.L2Hits+cs.L2Misses)))
		m.set("cache.writebacks", float64(cs.Writebacks))
	}
	m.set("memctrl.reads_served", float64(res.Ctrl.ReadsServed))
	m.set("memctrl.writes_served", float64(res.Ctrl.WritesServed))
	m.set("memctrl.row_hit_rate", res.RowHitRateTotal())
	m.set("memctrl.forwarded", float64(res.Ctrl.Forwarded))
	m.set("memctrl.avg_read_latency_ns", res.AvgReadLatencyNs())
	m.set("dram.acts", float64(res.Dev.Activations()))
	m.set("dram.avg_act_granularity", res.Dev.AvgGranularity())
	m.set("dram.reads", float64(res.Dev.Reads))
	m.set("dram.writes", float64(res.Dev.Writes))
	m.set("dram.precharges", float64(res.Dev.Precharges))
	m.set("dram.refreshes", float64(res.Dev.Refreshes))
	m.set("dram.low_power_residency", res.LowPowerResidency())
	m.set("power.avg_power_mw", res.AvgPowerMW())
	m.set("power.act_pre_share", res.Energy.Share(power.CompActPre))
	m.set("power.io_share", stats.Ratio(res.Energy.IO(), res.Energy.Total()))
}

// dramMetrics times the device model alone and estimates its share of the
// window that issued res's commands. The share is an estimate: from
// outside, dram's time inside the controller's Tick cannot be separated.
func dramMetrics(m metrics, c *checker, res *sim.Result, window time.Duration) {
	full, err := dramCmdNs(false)
	if !c.op("dram microdriver", err) {
		return
	}
	partial, err := dramCmdNs(true)
	if !c.op("dram microdriver, 1/8 masks", err) {
		return
	}
	m.set("dram.cmd_ns", full)
	m.set("dram.cmd_partial_ns", partial)
	d := res.Dev
	cmds := d.Activations() + d.Reads + d.Writes + d.Precharges + d.Refreshes
	m.set("dram.est_share", stats.Ratio(float64(cmds)*full, float64(window)))
}

// dramCmdNs drives a stand-alone dram.Channel through legal
// ACT -> RD/WR -> PRE rounds over every bank, each command issued at the
// cycle its *ReadyAt call allows, and returns host ns per command. With
// partial set every activation opens one eighth of the row and is followed
// by a masked write, PRA's case.
func dramCmdNs(partial bool) (float64, error) {
	const rounds, repeats = 20_000, 3
	var fastest time.Duration
	for rep := 0; rep < repeats; rep++ {
		ch, err := dram.NewChannel(dram.DefaultTiming(), dram.DefaultGeometry(), power.NewAccumulator())
		if err != nil {
			return 0, err
		}
		burst := ch.T.TBURST
		now := int64(0)
		t := time.Now()
		for i := 0; i < rounds; i++ {
			r, b := i/ch.G.Banks%ch.G.Ranks, i%ch.G.Banks
			mask, frac := core.FullMask, 1.0
			if partial {
				mask, frac = core.Mask(1<<uint(i%8)), 1.0/8
			}
			now = ch.ActReadyAt(now, r, b, mask, false)
			if err := ch.Activate(now, r, b, i%ch.G.Rows, mask, false); err != nil {
				return 0, err
			}
			if partial || i%2 == 1 {
				now = ch.WriteReadyAt(now, r, b, burst)
				_, err = ch.Write(now, r, b, burst, frac, false)
			} else {
				now = ch.ReadReadyAt(now, r, b, burst)
				_, err = ch.Read(now, r, b, burst, frac, false)
			}
			if err != nil {
				return 0, err
			}
			now = ch.PreReadyAt(now, r, b)
			if err := ch.Precharge(now, r, b); err != nil {
				return 0, err
			}
		}
		fastest = best(fastest, time.Since(t))
	}
	return float64(fastest) / (3 * rounds), nil
}

// repeats is how often each run of the per-layer pass is made (traced
// replica, extra configurations, decode pass); the fastest is kept.
const repeats = 3

func (s *simRun) layers(m metrics, c *checker, untraced outcome) {
	modelMetrics(m, untraced.model)
	m.set("sim.new_s", untraced.phases[0].Seconds())
	m.set("sim.warmup_s", untraced.phases[1].Seconds())
	m.set("sim.measure_s", untraced.phases[2].Seconds())
	m.set("sim.host_alloc_mb", float64(untraced.allocBytes)/(1<<20))
	served := untraced.model.Ctrl.ReadsServed + untraced.model.Ctrl.WritesServed
	m.set("memctrl.req_per_s", stats.Ratio(float64(served), untraced.phases[2].Seconds()))
	dramMetrics(m, c, untraced.model, untraced.phases[2])

	var rp *replica
	var wall time.Duration
	for i := 0; i < repeats; i++ {
		r, w, err := s.traced(untraced.digest)
		if !c.op("traced rep", err) {
			return
		}
		if rp == nil || w < wall {
			rp, wall = r, w
		}
	}
	tr, share := rp.tr, rp.tr.share

	lc := rp.measured()
	m.set("sim.ticks_executed", float64(lc.ticks))
	m.set("sim.cycles_skipped", float64(lc.skipped))
	m.set("sim.skip_ratio", stats.Ratio(float64(lc.skipped), float64(lc.cycle)))
	m.set("sim.ns_per_tick", stats.Ratio(float64(untraced.phases[2]), float64(lc.ticks)))
	m.set("sim.nextevent_share", share(kFastForward)+share(kCtrlNextEvent))
	m.set("sim.ff_jumps", float64(lc.ffJumps))
	m.set("sim.ff_bound_cpu", float64(lc.ffBound[0]))
	m.set("sim.ff_bound_cache", float64(lc.ffBound[1]))
	m.set("sim.ff_bound_memctrl", float64(lc.ffBound[2]))
	m.set("sim.ff_blocked_cpu", float64(lc.ffBlockedCPU))
	m.set("sim.trace_overhead_ratio", stats.Ratio(float64(wall), float64(untraced.wall)))

	m.set("workload.next_calls", float64(tr.calls[kGenNext]))
	m.set("workload.next_share", share(kGenNext))
	m.set("workload.next_ns", tr.perCall(kGenNext))

	m.set("cpu.tick_calls", float64(tr.calls[kCPUTick]))
	m.set("cpu.tick_self_share", share(kCPUTick))
	m.set("cpu.tick_self_ns", tr.perCall(kCPUTick))
	m.set("cpu.quiescent_ticks", float64(lc.quiescent))
	m.set("cpu.mem_attempts", float64(tr.calls[kAccess]))
	m.set("cpu.mem_rejects", float64(rp.port.rejects))

	m.set("cache.access_calls", float64(tr.calls[kAccess]-rp.port.rejects))
	m.set("cache.access_self_share", share(kAccess))
	m.set("cache.tick_self_share", share(kCacheTick))
	m.set("cache.fill_share", share(kFill))
	m.set("cache.backend_attempts", float64(tr.calls[kEnqueue]))
	m.set("cache.backend_rejects", float64(rp.backend.rejects))

	accepted := tr.calls[kEnqueue] - rp.backend.rejects
	m.set("memctrl.tick_calls", float64(tr.calls[kCtrlTick]))
	m.set("memctrl.tick_self_share", share(kCtrlTick))
	m.set("memctrl.enqueue_calls", float64(accepted))
	m.set("memctrl.enqueue_share", share(kEnqueue))
	m.set("memctrl.enqueue_rejects", float64(rp.backend.rejects))
	m.set("memctrl.nextevent_ns", tr.perCall(kCtrlNextEvent))
	m.set("memctrl.ns_per_request", stats.Ratio((share(kCtrlTick)+share(kEnqueue))*float64(untraced.wall), float64(accepted)))
	m.set("sim.loop_share", share(kLoop))

	if s.extras {
		s.extraLayers(m, c, untraced)
	}
}

// traced runs the replica with spans on and checks it against the
// untraced digest.
func (s *simRun) traced(want string) (*replica, time.Duration, error) {
	tr := newTracer()
	runtime.GC()
	t := time.Now()
	rp, err := newReplica(s.cfg, tr)
	if err != nil {
		return nil, 0, err
	}
	res, err := rp.run()
	wall := time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	got, err := digest(res)
	if err != nil {
		return nil, 0, err
	}
	if got != want {
		return nil, 0, fmt.Errorf("replica digest %.12s differs from the untraced run's %.12s: bench/replica.go no longer tracks sim.System", got, want)
	}
	return rp, wall, nil
}

// extraLayers measures the optional machinery around a run: latency
// attribution, the epoch recorder and the checkpoint codec. None is on in
// a timed rep, so these are guard rails, not end-to-end movers.
func (s *simRun) extraLayers(m metrics, c *checker, untraced outcome) {
	// bestOf runs cfg and keeps the fastest wall.
	bestOf := func(what string, cfg sim.Config, check func(outcome) error) (time.Duration, bool) {
		var wall time.Duration
		for i := 0; i < repeats; i++ {
			runtime.GC()
			out, err := simRep(cfg)
			if err == nil {
				err = check(out)
			}
			if !c.op(what, err) {
				return 0, false
			}
			wall = best(wall, out.wall)
		}
		return wall, true
	}

	lat := s.cfg
	lat.LatBreak = true
	if wall, ok := bestOf("LatBreak rep", lat, func(out outcome) error {
		if st := out.model.Ctrl; st.ReadLatBreak.Sum() != st.ReadLatencySum {
			return fmt.Errorf("read latency components sum to %d, ReadLatencySum is %d", st.ReadLatBreak.Sum(), st.ReadLatencySum)
		}
		return nil
	}); ok {
		m.set("memctrl.latbreak_overhead_ratio", stats.Ratio(float64(wall), float64(untraced.wall)))
	}

	rec := s.cfg
	rec.Obs.EpochCycles = 100_000
	if wall, ok := bestOf("recorder rep", rec, func(out outcome) error {
		if out.digest != untraced.digest {
			return fmt.Errorf("digest with the recorder on differs from the plain run's")
		}
		return nil
	}); ok {
		m.set("obs.recorder_overhead_ratio", stats.Ratio(float64(wall), float64(untraced.wall)))
	}

	save, restore, size, err := s.checkpointRoundTrip(untraced.digest)
	if c.op("checkpoint round trip", err) {
		m.set("checkpoint.save_s", save.Seconds())
		m.set("checkpoint.restore_s", restore.Seconds())
		m.set("checkpoint.bytes", float64(size))
	}
}

// checkpointRoundTrip snapshots a system at the warmup boundary, restores
// the snapshot into a fresh one and measures there; the result must be the
// cold run's.
func (s *simRun) checkpointRoundTrip(want string) (save, restore time.Duration, size int, err error) {
	cold, err := sim.New(s.cfg)
	if err != nil {
		return
	}
	if err = cold.Warmup(); err != nil {
		return
	}
	t := time.Now()
	data, err := cold.Checkpoint()
	save = time.Since(t)
	if err != nil {
		return
	}
	warm, err := sim.New(s.cfg)
	if err != nil {
		return
	}
	t = time.Now()
	err = warm.Restore(data)
	restore = time.Since(t)
	if err != nil {
		return
	}
	res, err := warm.Measure()
	if err != nil {
		return
	}
	got, err := digest(res)
	if err == nil && got != want {
		err = fmt.Errorf("restored run's digest differs from the cold run's")
	}
	return save, restore, len(data), err
}

func (r *replayRun) layers(m metrics, c *checker, untraced outcome) {
	modelMetrics(m, untraced.model)
	dramMetrics(m, c, untraced.model, untraced.wall)

	// A decode-only pass over the same file: what is left of the replay's
	// wall is the controller and the device under it.
	var open, decode time.Duration
	var decoded, size int64
	for i := 0; i < repeats; i++ {
		t := time.Now()
		f, v2, err := r.open()
		if !c.op("trace open", err) {
			return
		}
		open = best(open, time.Since(t))
		t = time.Now()
		st := v2.Stream()
		var rec trace.Record
		for decoded = 0; st.Next(&rec); decoded++ {
		}
		decode = best(decode, time.Since(t))
		err = st.Err()
		if err == nil && decoded != r.records {
			err = fmt.Errorf("decoded %d records, capture held %d", decoded, r.records)
		}
		if info, serr := f.Stat(); serr == nil {
			size = info.Size()
		}
		f.Close()
		if !c.op("trace decode", err) {
			return
		}
	}
	wall := float64(untraced.wall)
	inCtrl := wall - float64(open) - float64(decode)
	recs := float64(r.records)
	m.set("trace.records", recs)
	m.set("trace.file_mb", float64(size)/(1<<20))
	m.set("trace.open_s", open.Seconds())
	m.set("trace.decode_s", decode.Seconds())
	m.set("trace.decode_ns_per_rec", stats.Ratio(float64(decode), recs))
	m.set("trace.replay_allocs_per_rec", stats.Ratio(float64(untraced.mallocs), recs))
	m.set("trace.host_alloc_mb", float64(untraced.allocBytes)/(1<<20))
	m.set("memctrl.tick_self_share", stats.Ratio(inCtrl, wall))
	m.set("memctrl.ns_per_request", stats.Ratio(inCtrl, recs))
	m.set("memctrl.req_per_s", stats.Ratio(recs, untraced.wall.Seconds()))
}

func (c *campaignRun) layers(m metrics, chk *checker, untraced outcome) {
	cells, err := table1Cells(untraced.table)
	if chk.op("table1 parse", err) {
		m.set("sim.table1_err_pp", meanAbsErr(cells))
	}

	cpu0 := processCPU()
	out, r, err := c.campaign()
	cpu := processCPU() - cpu0
	if err == nil && out.digest != untraced.digest {
		err = fmt.Errorf("campaign output differs from the timed reps'")
	}
	if !chk.op("campaign rep", err) {
		return
	}
	m.set("sim.host_alloc_mb", float64(untraced.allocBytes)/(1<<20))
	m.set("sim.runner_sims", float64(r.Simulations()))
	m.set("sim.runner_ckpt_hits", float64(r.CheckpointHits()))
	m.set("sim.runner_cpu_util", stats.Ratio(cpu.Seconds(), out.wall.Seconds()*float64(c.opt.Workers)))

	// The same experiment again on the warm runner: the memo's cost.
	t := time.Now()
	again, err := r.RunExperiment(c.exp)
	rerun := time.Since(t)
	if err == nil && again != out.table {
		err = fmt.Errorf("memoised rerun printed a different table")
	}
	if chk.op("memoised rerun", err) {
		m.set("sim.runner_memo_rerun_s", rerun.Seconds())
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cell is one "measured (paper)" pair of the Table 1 output.
type cell struct{ measured, paper float64 }

var cellRE = regexp.MustCompile(`(-?\d+(?:\.\d+)?) \(\s*(-?\d+(?:\.\d+)?)\)`)

// table1Cells parses the experiment's printed table, so the paper's
// reference values stay stated once, in internal/sim.
func table1Cells(table string) ([]cell, error) {
	var cells []cell
	for _, mt := range cellRE.FindAllStringSubmatch(table, -1) {
		v, err1 := strconv.ParseFloat(mt[1], 64)
		ref, err2 := strconv.ParseFloat(mt[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("table1: bad cell %q", mt[0])
		}
		cells = append(cells, cell{v, ref})
	}
	if want := 6 * len(table1Benchmarks(table)); len(cells) != want || want == 0 {
		return nil, fmt.Errorf("table1: parsed %d cells, want %d", len(cells), want)
	}
	return cells, nil
}

// meanAbsErr is the simulator's error against the paper in percentage
// points, averaged over the cells.
func meanAbsErr(cells []cell) float64 {
	var sum float64
	for _, c := range cells {
		sum += math.Abs(c.measured - c.paper)
	}
	return sum / float64(len(cells))
}
