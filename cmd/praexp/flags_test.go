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

var update = flag.Bool("update", false, "rewrite testdata/flags.golden")

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("praexp", flag.ContinueOnError)
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

// field reads a dotted path (nested structs included) out of the parsed
// options; "run.X" is field X of the ExpOptions the runner is built from.
func field(t *testing.T, o options, path string) string {
	t.Helper()
	v := reflect.ValueOf(o)
	for _, p := range strings.Split(path, ".") {
		if v = v.FieldByName(p); !v.IsValid() {
			t.Fatalf("no field %q in path %q", p, path)
		}
	}
	return fmt.Sprint(v)
}

// TestArgsToOptions pins where each flag lands: every flag, set to a
// non-default value, must reach the option or ExpOptions field it names.
func TestArgsToOptions(t *testing.T) {
	cases := []struct {
		args []string
		want map[string]string
	}{
		{nil, map[string]string{
			"exp": "all", "list": "false", "quiet": "false", "httpAddr": "",
			"run.Instr": "400000", "run.Warmup": "400000", "run.Seed": "1",
			"run.Workers": strconv.Itoa(runtime.GOMAXPROCS(0)), "run.NoSkip": "false",
		}},
		{[]string{"-exp", "fig12"}, map[string]string{"exp": "fig12"}},
		{[]string{"-list"}, map[string]string{"list": "true"}},
		{[]string{"-instr", "12345"}, map[string]string{"run.Instr": "12345"}},
		{[]string{"-warmup", "54321"}, map[string]string{"run.Warmup": "54321"}},
		{[]string{"-seed", "9"}, map[string]string{"run.Seed": "9"}},
		{[]string{"-j", "7"}, map[string]string{"run.Workers": "7"}},
		{[]string{"-j", "0"}, map[string]string{"run.Workers": strconv.Itoa(runtime.GOMAXPROCS(0))}},
		{[]string{"-q"}, map[string]string{"quiet": "true"}},
		{[]string{"-noskip"}, map[string]string{"run.NoSkip": "true"}},
		{[]string{"-http", ":6060"}, map[string]string{"httpAddr": ":6060"}},
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
