package main

import (
	"os"
	"path/filepath"
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

// TestRetiredTraceFormatIsRejected: a trace file is outside input too. One in
// the flat serialization this binary wrote before the chunked one must end
// -replay and -info in the line that names the cause and the remedy.
func TestRetiredTraceFormatIsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(path, []byte("PRA1\x01\x00\x00\x40"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs(newFlagSet(), []string{"-replay", path})
	if err != nil {
		t.Fatal(err)
	}
	const want = "PRA1 traces are no longer supported; re-record with pratrace -record"
	for mode, err := range map[string]error{"-replay": doReplay(path, o.cfg, false), "-info": doInfo(path)} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", mode, err, want)
		}
	}
}
