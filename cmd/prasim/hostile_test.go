package main

import (
	"strings"
	"testing"
)

// TestHostileArgsAreRejected: nonsense on the command line ends in an error
// naming the flag or the Config field, before anything is built — not in a
// livelocked run, a silently different run, or an exit 0 without the file
// that was asked for.
func TestHostileArgsAreRejected(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-mit-threshold 1", "MitThreshold must be 0 (off) or ≥ 2"},
		{"-warmup -5", "WarmupPerCore"},
		{"-instr 0", "InstrPerCore"},
		{"-timeline f.csv -epoch -7", "Obs.EpochCycles"},
		{"-timeline f.csv -epoch 0", "-timeline needs a positive -epoch"},
		{"-trace-out t.json -trace-sample 0", "-trace-out needs a positive -trace-sample"},
		{"-trace-out t.json -trace-sample -3", "LatSpanEvery"},
		{"-events-out ev.log", "-events-out needs -events state or -events cmd"},
		{"-events off -events-out ev.log", "-events-out needs -events state or -events cmd"},
		{"-pd-policy timeout -pd-timeout 0", "requires PDTimeout > 0"},
		{"-channels 3", "channels must be a positive power of two"},
		{"-cores 9", "ActiveCores"},
		{"-power-cal bogus", "PowerCal"},
		{"-workload nosuch", `unknown workload set "nosuch"`},
		{"-workload gups:3", "names 3 instances, have 4 cores"},
		{"-workload gups:2.5,linkedlist:2", "bad instance count"},
		{"-workload GUPS,em3d", `workload: mix spec "GUPS,em3d" names 2 instances, have 4 cores`},
		{"-scheme nosuch", `invalid value "nosuch" for flag -scheme`},
		{"-events loud", `invalid value "loud" for flag -events`},
	} {
		_, err := parseArgs(newFlagSet(), strings.Fields(c.args))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.args, err, c.want)
		}
	}
	// -list needs no valid run.
	if o, err := parseArgs(newFlagSet(), []string{"-list", "-workload", "nosuch"}); err != nil || !o.list {
		t.Errorf("-list must not validate the run: %v", err)
	}
}
