package obs_test

import (
	"fmt"
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/obs"
	"pradram/internal/power"
)

// These benchmarks drive the same DRAM command hot path (the ACT /
// column-write / PRE cycle of the channel model) three ways: with no
// telemetry code in the loop at all (the baseline), with telemetry
// disabled, and with it fully enabled. CI's benchgate tool runs them at
// -benchtime 1x and fails if the disabled path costs more than the
// baseline — the regression it guards against is "disabled" telemetry that
// still pays for emission (a broken level guard, a probe read in the
// per-cycle path). The enabled path is measured for information. Each b.N
// iteration performs innerOps command cycles so a single -benchtime 1x
// pass is long enough to be stable: ~10 ms for the two gated paths, where
// a timer tick or a preemption is well under the gate's 5%.

const innerOps = 200000

// benchEpoch is the recorder's sampling period in the telemetry-on path.
const benchEpoch = 10_000

// activate issues command cycle op's ACT at the earliest legal cycle from
// now on and returns that cycle and the bank.
func activate(b *testing.B, ch *dram.Channel, now int64, op int) (int64, int) {
	bank := op % ch.G.Banks
	now = ch.ActReadyAt(now, 0, bank, core.FullMask, false)
	if err := ch.Activate(now, 0, bank, op%ch.G.Rows, core.FullMask, false); err != nil {
		b.Fatal(err)
	}
	return now, bank
}

// writePrecharge completes the command cycle on bank (column write, then
// PRE) and returns the precharge cycle.
func writePrecharge(b *testing.B, ch *dram.Channel, now int64, bank int) int64 {
	at := ch.WriteReadyAt(now, 0, bank, ch.T.TBURST)
	if _, err := ch.Write(at, 0, bank, ch.T.TBURST, 1, false); err != nil {
		b.Fatal(err)
	}
	pre := ch.PreReadyAt(at, 0, bank)
	if err := ch.Precharge(pre, 0, bank); err != nil {
		b.Fatal(err)
	}
	return pre
}

// commandCycles drives innerOps ACT/WR/PRE cycles, mirroring the
// controller's instrumentation pattern: a nil-safe Enabled guard before
// every emission and an epoch check against the recorder.
func commandCycles(b *testing.B, ch *dram.Channel, ev *obs.EventLog, rec *obs.Recorder) {
	now := int64(0)
	next := int64(-1)
	if rec != nil {
		rec.Begin(0)
		next = benchEpoch
	}
	for i := 0; i < b.N; i++ {
		for op := 0; op < innerOps; op++ {
			var bank int
			now, bank = activate(b, ch, now, op)
			if ev.Enabled(obs.LevelState) {
				ev.Emit(obs.Event{Cycle: now, Level: obs.LevelState, Scope: "bench",
					Kind: "act", Detail: fmt.Sprintf("bank %d", bank)})
			}
			now = writePrecharge(b, ch, now, bank)
			if rec != nil && now >= next {
				rec.Sample(now)
				next = now + benchEpoch
			}
		}
	}
}

func newBenchChannel(b *testing.B) *dram.Channel {
	ch, err := dram.NewChannel(dram.DefaultTiming(), dram.DefaultGeometry(), power.NewAccumulator())
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

// BenchmarkTelemetryBaselineHotPath is the command loop of commandCycles
// with no telemetry code in it: no Enabled guard, no recorder check. It is
// what the telemetry-off path is gated against.
func BenchmarkTelemetryBaselineHotPath(b *testing.B) {
	ch := newBenchChannel(b)
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		for op := 0; op < innerOps; op++ {
			var bank int
			now, bank = activate(b, ch, now, op)
			now = writePrecharge(b, ch, now, bank)
		}
	}
}

// BenchmarkTelemetryOffHotPath is the production telemetry-off path: a nil
// event log behind the Enabled guard, no recorder, no DRAM command trace.
func BenchmarkTelemetryOffHotPath(b *testing.B) {
	ch := newBenchChannel(b)
	b.ResetTimer()
	commandCycles(b, ch, nil, nil)
}

// BenchmarkTelemetryOnHotPath attaches everything: a cmd-level event ring
// and per-bank command counts fed by the channel's command trace, state
// events from the driver loop, and an epoch recorder with per-bank probes.
func BenchmarkTelemetryOnHotPath(b *testing.B) {
	ch := newBenchChannel(b)
	ev := obs.NewEventLog(obs.DefaultEventCap, obs.LevelCmd)
	counts := make([][dram.CmdPre + 1]int64, ch.G.Ranks*ch.G.Banks)
	ch.Trace = func(e dram.CmdEvent) {
		ev.Emit(obs.Event{Cycle: e.At, Level: obs.LevelCmd, Scope: "dram", Kind: e.Kind.String(), Detail: e.String()})
		if e.Kind <= dram.CmdPre {
			counts[e.Rank*ch.G.Banks+e.Bank][e.Kind]++
		}
	}
	rec := obs.NewRecorder(benchEpoch)
	for i := range counts {
		n := &counts[i]
		rec.Counter(fmt.Sprintf("r%d_b%d_act", i/ch.G.Banks, i%ch.G.Banks), func() int64 { return n[dram.CmdAct] })
		rec.Counter(fmt.Sprintf("r%d_b%d_wr", i/ch.G.Banks, i%ch.G.Banks), func() int64 { return n[dram.CmdWrite] })
	}
	b.ResetTimer()
	commandCycles(b, ch, ev, rec)
}
