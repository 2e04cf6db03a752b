package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("prasim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// flagSurface renders what -h promises about every flag: name, default,
// help text, one flag per line in name order. The -j default tracks the
// host, so it is spelled symbolically.
func flagSurface(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if f.Name == "j" && def == strconv.Itoa(runtime.GOMAXPROCS(0)) {
			def = "GOMAXPROCS"
		}
		fmt.Fprintf(&b, "-%s\t%q\t%s\n", f.Name, def, f.Usage)
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
// (promoted fields and nested structs included) of the first run's Config,
// anything else a field of the options struct itself.
func field(t *testing.T, o options, path string) string {
	t.Helper()
	v := reflect.ValueOf(o)
	parts := strings.Split(path, ".")
	if parts[0] == "cfg" {
		v, parts = reflect.ValueOf(o.cfgs[0]), parts[1:]
	}
	for _, p := range parts {
		if v = v.FieldByName(p); !v.IsValid() {
			t.Fatalf("no field %q in path %q", p, path)
		}
	}
	return fmt.Sprint(v)
}

// TestArgsToConfig pins where each flag lands: every flag, set to a
// non-default value, must reach the Config (or option) field it names, and
// the flags that arm one another must keep doing so.
func TestArgsToConfig(t *testing.T) {
	cases := []struct {
		args []string
		want map[string]string
	}{
		{nil, map[string]string{
			"cfg.Workload": "GUPS", "cfg.Scheme": "baseline", "cfg.Policy": "relaxed-close",
			"cfg.DBI": "false", "cfg.ECC": "false", "cfg.InstrPerCore": "400000", "cfg.WarmupPerCore": "400000",
			"cfg.Cores": "4", "cfg.ActiveCores": "4", "cfg.Seed": "1", "cfg.NoSkip": "false", "cfg.Channels": "0",
			"cfg.PDPolicy": "immediate", "cfg.PDTimeout": "200", "cfg.SRTimeout": "0", "cfg.PDSlowExit": "false",
			"cfg.APD": "false", "cfg.RefreshMode": "allbank",
			"cfg.MitThreshold": "0", "cfg.MitAlertCycles": "0", "cfg.PowerCal": "",
			"cfg.LatBreak": "false", "cfg.LatSpanEvery": "0",
			"cfg.Obs.EpochCycles": "0", "cfg.Obs.EventLevel": "off",
			"cfg.Capture": "false", "cfg.NoTimingRelax": "false", "cfg.NoPartialIO": "false", "cfg.NoMaskCycle": "false",
			"cfg.MaxCycles": "0",
			"list":          "false", "asJSON": "false", "workers": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"traceOut": "", "timeline": "", "eventsOut": "", "httpAddr": "",
		}},
		{[]string{"-workload", "em3d"}, map[string]string{"cfg.Workload": "em3d"}},
		{[]string{"-scheme", "halfdram+pra"}, map[string]string{"cfg.Scheme": "halfdram+pra"}},
		{[]string{"-policy", "restricted"}, map[string]string{"cfg.Policy": "restricted-close"}},
		{[]string{"-dbi"}, map[string]string{"cfg.DBI": "true"}},
		{[]string{"-instr", "12345"}, map[string]string{"cfg.InstrPerCore": "12345"}},
		{[]string{"-warmup", "54321"}, map[string]string{"cfg.WarmupPerCore": "54321"}},
		{[]string{"-cores", "2"}, map[string]string{"cfg.ActiveCores": "2", "cfg.Cores": "4"}},
		{[]string{"-seed", "9"}, map[string]string{"cfg.Seed": "9"}},
		{[]string{"-list"}, map[string]string{"list": "true"}},
		{[]string{"-json"}, map[string]string{"asJSON": "true"}},
		{[]string{"-ecc"}, map[string]string{"cfg.ECC": "true"}},
		{[]string{"-j", "7"}, map[string]string{"workers": "7"}},
		{[]string{"-noskip"}, map[string]string{"cfg.NoSkip": "true"}},
		{[]string{"-channels", "4"}, map[string]string{"cfg.Channels": "4"}},
		{[]string{"-pd-policy", "queue"}, map[string]string{"cfg.PDPolicy": "queue"}},
		{[]string{"-pd-timeout", "77"}, map[string]string{"cfg.PDTimeout": "77"}},
		{[]string{"-sr-timeout", "5000"}, map[string]string{"cfg.SRTimeout": "5000"}},
		{[]string{"-pd-slow"}, map[string]string{"cfg.PDSlowExit": "true"}},
		{[]string{"-apd"}, map[string]string{"cfg.APD": "true"}},
		{[]string{"-refresh-mode", "elastic"}, map[string]string{"cfg.RefreshMode": "elastic"}},
		{[]string{"-mit-threshold", "32"}, map[string]string{"cfg.MitThreshold": "32"}},
		{[]string{"-mit-alert", "288"}, map[string]string{"cfg.MitAlertCycles": "288"}},
		{[]string{"-power-cal", "ghose:10"}, map[string]string{"cfg.PowerCal": "ghose:10"}},
		{[]string{"-latbreak"}, map[string]string{"cfg.LatBreak": "true", "cfg.LatSpanEvery": "0"}},
		{[]string{"-events", "cmd"}, map[string]string{"cfg.Obs.EventLevel": "cmd"}},
		{[]string{"-events", "state", "-events-out", "ev.log"}, map[string]string{"eventsOut": "ev.log", "cfg.Obs.EventLevel": "state"}},

		// -trace-out implies -latbreak and arms span sampling at
		// -trace-sample; on its own -trace-sample does nothing.
		{[]string{"-trace-out", "t.json"}, map[string]string{"traceOut": "t.json", "cfg.LatBreak": "true", "cfg.LatSpanEvery": "64"}},
		{[]string{"-trace-out", "t.json", "-trace-sample", "7"}, map[string]string{"cfg.LatBreak": "true", "cfg.LatSpanEvery": "7"}},
		{[]string{"-trace-sample", "7"}, map[string]string{"cfg.LatBreak": "false", "cfg.LatSpanEvery": "0"}},

		// -timeline and -http arm the epoch recorder at -epoch; on its own
		// -epoch does nothing.
		{[]string{"-timeline", "tl.csv"}, map[string]string{"timeline": "tl.csv", "cfg.Obs.EpochCycles": "100000"}},
		{[]string{"-http", ":6060"}, map[string]string{"httpAddr": ":6060", "cfg.Obs.EpochCycles": "100000"}},
		{[]string{"-timeline", "tl.csv", "-epoch", "500"}, map[string]string{"cfg.Obs.EpochCycles": "500"}},
		{[]string{"-epoch", "500"}, map[string]string{"cfg.Obs.EpochCycles": "0"}},

		// -mix replaces -workload with one co-run, commas and all.
		{[]string{"-workload", "em3d", "-mix", "gups:2,linkedlist:2"}, map[string]string{"cfg.Workload": "gups:2,linkedlist:2"}},
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

	// A comma-separated -workload is a batch: one Config per name, spaces
	// trimmed, every other flag applied to each.
	o, err := parseArgs(newFlagSet(), []string{"-workload", "GUPS, em3d,MIX2", "-scheme", "pra"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, cfg := range o.cfgs {
		names = append(names, cfg.Workload+"/"+cfg.Scheme.String())
	}
	if got, want := strings.Join(names, " "), "GUPS/pra em3d/pra MIX2/pra"; got != want {
		t.Errorf("batch = %q, want %q", got, want)
	}
	if o, err = parseArgs(newFlagSet(), []string{"-mix", "gups:2,linkedlist:2"}); err != nil || len(o.cfgs) != 1 {
		t.Errorf("-mix must yield exactly one run, got %d (err %v)", len(o.cfgs), err)
	}
}
