package sim

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
)

// notFlags lists the Config fields (promoted knobs included) that
// deliberately have no command-line flag, each with its reason.
var notFlags = map[string]string{
	"NoTimingRelax": "ablation: a study the ablation experiment runs, not a mode a user runs in",
	"NoPartialIO":   "ablation, as above",
	"NoMaskCycle":   "ablation, as above",
	"Cores":         "the paper's system has four cores; -cores binds ActiveCores",
	"Capture":       "implied by pratrace -record",
	"MaxCycles":     "the no-progress budget is derived; tests override it",
	"CPU":           "Table 3's core is fixed; sensitivity sweeps set it in code",
	"Generator":     "a Go hook",
	"Timing":        "a speed grade is a struct; the speedgrades experiment sets it by grade name (runKey.grade)",
}

// TestEveryFieldIsDecided makes adding a knob a decision: every field a
// selector on Config reaches is either the target of a flag-table row (for
// a struct-valued field, of a row that points inside it) or listed in
// notFlags, and never both.
func TestEveryFieldIsDecided(t *testing.T) {
	var cfg Config
	base := reflect.ValueOf(&cfg).Elem()
	bound := make(map[string]bool)
	for _, row := range flagTable {
		p := reflect.ValueOf(row.target(&cfg)).Pointer()
		hit := ""
		for _, name := range leafFields(base.Type()) {
			f := base.FieldByName(name)
			if lo := f.Addr().Pointer(); p >= lo && p < lo+f.Type().Size() {
				hit = name
			}
		}
		if hit == "" {
			t.Errorf("flag -%s does not point into the Config it was given", row.name)
		}
		bound[hit] = true
	}
	for _, name := range leafFields(base.Type()) {
		_, excused := notFlags[name]
		switch {
		case !bound[name] && !excused:
			t.Errorf("Config field %s has no flag-table row and no notFlags entry: bind it or say why not", name)
		case bound[name] && excused:
			t.Errorf("Config field %s is both flag-bound and listed in notFlags", name)
		}
	}
	for name := range notFlags {
		if !base.FieldByName(name).IsValid() {
			t.Errorf("notFlags names %s, which is not a Config field", name)
		}
	}
}

// TestBindFlags covers the binding contract: defaults come from the Config
// handed in, values parse into it (enumerations through their Set
// methods, with the parse error surfacing from fs.Parse), a subset
// registers only what it names, and a name the table lacks panics.
func TestBindFlags(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs
	}

	cfg := DefaultConfig("em3d")
	cfg.Policy = memctrl.RestrictedClose
	cfg.PDTimeout = 123
	fs := newFS()
	BindFlags(fs, &cfg)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(flagTable) {
		t.Errorf("no names must bind all %d rows, bound %d", len(flagTable), n)
	}
	for name, want := range map[string]string{
		"workload": "em3d", "policy": "restricted-close", "pd-timeout": "123",
		"scheme": "baseline", "events": "off", "instr": "1000000",
	} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	err := fs.Parse([]string{"-scheme", "halfdram+pra", "-policy", "open", "-pd-policy", "queue",
		"-refresh-mode", "postpone", "-events", "cmd", "-mit-alert", "300", "-seed", "7", "-apd", "-epoch", "9"})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig("em3d")
	want.Scheme, want.Policy = memctrl.HalfDRAMPRA, memctrl.OpenPage
	want.PDPolicy, want.PDTimeout, want.APD, want.RefreshMode = memctrl.PDQueueAware, 123, true, dram.RefElastic
	want.MitAlertCycles, want.Seed = 300, 7
	want.Obs = ObsConfig{EpochCycles: 9, EventLevel: obs.LevelCmd}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("parsed config\n got %+v\nwant %+v", cfg, want)
	}
	if err := fs.Parse([]string{"-scheme", "nosuch"}); err == nil || cfg.Scheme != memctrl.HalfDRAMPRA {
		t.Errorf("a bad enumeration must fail the parse and leave the field alone (err %v, scheme %v)", err, cfg.Scheme)
	}

	fs = newFS()
	BindFlags(fs, &cfg, "seed", "scheme")
	if fs.Lookup("seed") == nil || fs.Lookup("scheme") == nil || fs.Lookup("workload") != nil {
		t.Error("a named subset must register exactly the names given")
	}
	defer func() {
		if recover() == nil {
			t.Error("a name missing from the flag table must panic")
		}
	}()
	BindFlags(newFS(), &cfg, "no-such-flag")
}

// TestEnumFlagSpellings pins the five enumerated knobs at the flag surface.
// For each value, in value order, it lists String's name first and then
// every other spelling the flag accepts (aliases, case-folded forms). Every
// String must parse back to its value, every listed spelling must parse,
// the rejects must fail and leave the field alone (the case-sensitive
// enums stay case-sensitive), Validate must reject the first value past
// the end naming the field, and prasim's help (testdata/flags.golden, the
// flag table's own text) must list a spelling of every value.
func TestEnumFlagSpellings(t *testing.T) {
	golden, err := os.ReadFile("../../cmd/prasim/testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	help := make(map[string]string)
	for _, line := range strings.Split(string(golden), "\n") {
		if f := strings.SplitN(line, "\t", 3); len(f) == 3 {
			help[strings.TrimPrefix(f[0], "-")] = f[2]
		}
	}
	target := func(cfg *Config, name string) reflect.Value {
		for _, row := range flagTable {
			if row.name == name {
				return reflect.ValueOf(row.target(cfg)).Elem()
			}
		}
		t.Fatalf("no flag-table row -%s", name)
		return reflect.Value{}
	}
	setRaw := func(v reflect.Value, i int) {
		if v.CanInt() {
			v.SetInt(int64(i))
		} else {
			v.SetUint(uint64(i))
		}
	}
	raw := func(v reflect.Value) int {
		if v.CanInt() {
			return int(v.Int())
		}
		return int(v.Uint())
	}
	for _, c := range []struct {
		flag, field string
		values      [][]string
		rejects     []string
	}{
		{"scheme", "Scheme",
			[][]string{{"baseline"}, {"fga"}, {"halfdram"}, {"pra"}, {"halfdram+pra"}, {"sds"}},
			[]string{"PRA", "Baseline", "nosuch", ""}},
		{"policy", "Policy",
			[][]string{{"relaxed-close", "relaxed"}, {"restricted-close", "restricted"}, {"open-page", "open"}},
			[]string{"Relaxed", "OPEN", "open-close", ""}},
		{"pd-policy", "PDPolicy",
			[][]string{{"immediate", "Immediate"}, {"none", "NONE"}, {"timeout", "TimeOut"}, {"queue", "Queue"}},
			[]string{"timed", "queue-aware", ""}},
		{"refresh-mode", "RefreshMode",
			[][]string{{"allbank", "AllBank"}, {"perbank", "PERBANK"}, {"elastic", "Elastic", "postpone", "POSTPONE"}},
			[]string{"all-bank", "postponed", ""}},
		{"events", "EventLevel",
			[][]string{{"off", ""}, {"state"}, {"cmd"}},
			[]string{"Off", "CMD", "verbose"}},
	} {
		n := len(c.values)
		parse := func(s string, before int) (int, error) {
			cfg := DefaultConfig("GUPS")
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			BindFlags(fs, &cfg, c.flag)
			setRaw(target(&cfg, c.flag), before)
			err := fs.Set(c.flag, s)
			return raw(target(&cfg, c.flag)), err
		}
		for i, spellings := range c.values {
			cfg := DefaultConfig("GUPS")
			setRaw(target(&cfg, c.flag), i)
			if s := fmt.Sprint(target(&cfg, c.flag).Interface()); s != spellings[0] {
				t.Errorf("-%s: value %d prints %q, want %q", c.flag, i, s, spellings[0])
			}
			for _, s := range spellings {
				if got, err := parse(s, (i+1)%n); err != nil || got != i {
					t.Errorf("-%s %q parses to %d (%v), want %d", c.flag, s, got, err, i)
				}
			}
		}
		for _, s := range c.rejects {
			if got, err := parse(s, n-1); err == nil || got != n-1 {
				t.Errorf("-%s %q: accepted (now %d), want an error that leaves the field at %d", c.flag, s, got, n-1)
			}
		}

		cfg := DefaultConfig("GUPS")
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		setRaw(target(&cfg, c.flag), n)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s = %d: Validate says %v, want an error naming %s", c.field, n, err, c.field)
		}

		words := strings.FieldsFunc(help[c.flag], func(r rune) bool { return strings.ContainsRune(" |:,()", r) })
		for i, spellings := range c.values {
			if !slices.ContainsFunc(spellings, func(s string) bool { return slices.Contains(words, s) }) {
				t.Errorf("-%s help %q lists no spelling of value %d (%s)", c.flag, help[c.flag], i, spellings[0])
			}
		}
	}
}
