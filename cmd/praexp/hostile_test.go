package main

import (
	"strings"
	"testing"
)

// TestHostileArgsAreRejected: a negative budget or pool size is an error
// naming the option, not silently the default.
func TestHostileArgsAreRejected(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-instr -5", "Instr"},
		{"-warmup -5", "Warmup"},
		{"-j -2", "Workers"},
	} {
		_, err := parseArgs(newFlagSet(), strings.Fields(c.args))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.args, err, c.want)
		}
	}
	if _, err := parseArgs(newFlagSet(), []string{"-j", "0"}); err != nil {
		t.Errorf("-j 0 selects GOMAXPROCS: %v", err)
	}
}
