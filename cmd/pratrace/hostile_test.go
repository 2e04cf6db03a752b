package main

import (
	"strings"
	"testing"
)

// TestHostileArgsAreRejected: nonsense on the command line ends in an error
// naming the flags or the Config field, not in one mode silently winning or
// a silently different recording.
func TestHostileArgsAreRejected(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-record a.trace -replay b.trace", "mutually exclusive"},
		{"-record a.trace -info b.trace", "mutually exclusive"},
		{"-replay a.trace -info b.trace", "mutually exclusive"},
		{"-record a.trace -warmup -5", "WarmupPerCore"},
		{"-record a.trace -instr -1", "InstrPerCore"},
		{"-replay a.trace -pd-policy queue -pd-timeout 0", "requires PDTimeout > 0"},
		{"-replay a.trace -sr-timeout -1", "SRTimeout"},
		{"-replay a.trace -policy sideways", `invalid value "sideways" for flag -policy`},
	} {
		_, err := parseArgs(newFlagSet(), strings.Fields(c.args))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}
