package sim

import (
	"flag"
	"io"
	"reflect"
	"testing"

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
	"CPUPerMem":     "set alongside Timing",
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
// handed in, values parse into it (enumerations through their Parse
// functions, with the parse error surfacing from fs.Parse), a subset
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
		"workload": "em3d", "policy": "restricted", "pd-timeout": "123",
		"scheme": "baseline", "events": "off", "instr": "1000000",
	} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	err := fs.Parse([]string{"-scheme", "halfdram+pra", "-policy", "open", "-pd-policy", "queue",
		"-refresh-mode", "postpone", "-events", "cmd", "-mit-table", "64", "-seed", "7", "-apd", "-epoch", "9"})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig("em3d")
	want.Scheme, want.Policy = memctrl.HalfDRAMPRA, memctrl.OpenPage
	want.PDPolicy, want.PDTimeout, want.APD, want.RefreshMode = memctrl.PDQueueAware, 123, true, memctrl.RefreshElastic
	want.MitTableCap, want.Seed = 64, 7
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
