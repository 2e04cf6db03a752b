package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("pratrace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// flagSurface renders what -h promises about every flag: name, default,
// help text, one flag per line in name order.
func flagSurface(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "-%s\t%q\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	return b.String()
}

// TestFlagSurfaceGolden pins the binary's flag names, defaults and help
// strings: a flag added, removed, renamed, re-defaulted or re-worded shows
// up as a diff of testdata/flags.golden.
func TestFlagSurfaceGolden(t *testing.T) {
	fs := newFlagSet()
	if _, err := parseArgs(fs, nil); err != nil {
		t.Fatal(err)
	}
	got := flagSurface(fs)
	const path = "testdata/flags.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("flag surface changed (rerun with -update if intended):\n--- got\n%s--- want\n%s", got, want)
	}
}

// field reads a dotted path out of the parsed options: "cfg.X" is field X
// (promoted fields and nested structs included) of the Config, anything
// else a field of the options struct itself.
func field(t *testing.T, o options, path string) string {
	t.Helper()
	v := reflect.ValueOf(o)
	parts := strings.Split(path, ".")
	if parts[0] == "cfg" {
		v, parts = reflect.ValueOf(o.cfg), parts[1:]
	}
	for _, p := range parts {
		if v = v.FieldByName(p); !v.IsValid() {
			t.Fatalf("no field %q in path %q", p, path)
		}
	}
	return fmt.Sprint(v)
}

// TestArgsToConfig pins where each flag lands: every flag, set to a
// non-default value, must reach the Config (or option) field it names.
func TestArgsToConfig(t *testing.T) {
	cases := []struct {
		args []string
		want map[string]string
	}{
		{nil, map[string]string{
			"cfg.Workload": "GUPS", "cfg.Scheme": "baseline", "cfg.Policy": "relaxed-close",
			"cfg.InstrPerCore": "200000", "cfg.WarmupPerCore": "300000", "cfg.Seed": "1", "cfg.NoSkip": "false",
			"cfg.Cores": "4", "cfg.ActiveCores": "0", "cfg.DBI": "false", "cfg.ECC": "false", "cfg.Channels": "0",
			"cfg.PDPolicy": "immediate", "cfg.PDTimeout": "200", "cfg.SRTimeout": "0", "cfg.PDSlowExit": "false",
			"cfg.APD": "false", "cfg.RefreshMode": "allbank",
			"cfg.MitThreshold": "0", "cfg.LatBreak": "false", "cfg.Obs.EpochCycles": "0", "cfg.PowerCal": "",
			"record": "", "replay": "", "info": "", "compare": "false", "httpAddr": "",
		}},
		{[]string{"-record", "g.trace"}, map[string]string{"record": "g.trace"}},
		{[]string{"-replay", "g.trace"}, map[string]string{"replay": "g.trace"}},
		{[]string{"-info", "g.trace"}, map[string]string{"info": "g.trace"}},
		{[]string{"-workload", "GUPS:2,LinkedList:2"}, map[string]string{"cfg.Workload": "GUPS:2,LinkedList:2"}},
		{[]string{"-scheme", "pra"}, map[string]string{"cfg.Scheme": "pra"}},
		{[]string{"-policy", "restricted"}, map[string]string{"cfg.Policy": "restricted-close"}},
		{[]string{"-compare"}, map[string]string{"compare": "true"}},
		{[]string{"-instr", "12345"}, map[string]string{"cfg.InstrPerCore": "12345"}},
		{[]string{"-warmup", "54321"}, map[string]string{"cfg.WarmupPerCore": "54321"}},
		{[]string{"-seed", "9"}, map[string]string{"cfg.Seed": "9"}},
		{[]string{"-noskip"}, map[string]string{"cfg.NoSkip": "true"}},
		{[]string{"-http", ":6060"}, map[string]string{"httpAddr": ":6060", "cfg.Obs.EpochCycles": "0"}},
		{[]string{"-pd-policy", "timeout"}, map[string]string{"cfg.PDPolicy": "timeout"}},
		{[]string{"-pd-timeout", "77"}, map[string]string{"cfg.PDTimeout": "77"}},
		{[]string{"-sr-timeout", "5000"}, map[string]string{"cfg.SRTimeout": "5000"}},
		{[]string{"-pd-slow"}, map[string]string{"cfg.PDSlowExit": "true"}},
		{[]string{"-apd"}, map[string]string{"cfg.APD": "true"}},
		{[]string{"-refresh-mode", "perbank"}, map[string]string{"cfg.RefreshMode": "perbank"}},
	}
	for _, c := range cases {
		o, err := parseArgs(newFlagSet(), c.args)
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		for path, want := range c.want {
			if got := field(t, o, path); got != want {
				t.Errorf("%v: %s = %q, want %q", c.args, path, got, want)
			}
		}
	}
}
