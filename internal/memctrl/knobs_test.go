package memctrl

import (
	"strings"
	"testing"

	"pradram/internal/dram"
)

// TestKnobsValidate holds every rejection to naming the field (or the
// combination) at fault, and the accepted neighbours to passing.
func TestKnobsValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		set  func(*Knobs)
		want string // substring of the error; "" = must pass
	}{
		{"default", func(k *Knobs) {}, ""},
		{"threshold 2", func(k *Knobs) { k.MitThreshold = 2 }, ""},
		{"threshold 1", func(k *Knobs) { k.MitThreshold = 1 },
			"MitThreshold must be 0 (off) or ≥ 2: the activation that raises the alert is closed by its own RFM before its column command"},
		{"negative threshold", func(k *Knobs) { k.MitThreshold = -1 }, "MitThreshold must be non-negative"},
		{"negative alert", func(k *Knobs) { k.MitAlertCycles = -1 }, "MitAlertCycles must be non-negative"},
		{"negative pd timeout", func(k *Knobs) { k.PDTimeout = -1 }, "PDTimeout must be non-negative"},
		{"negative sr timeout", func(k *Knobs) { k.SRTimeout = -1 }, "SRTimeout must be non-negative"},
		{"negative span sampling", func(k *Knobs) { k.LatSpanEvery = -1 }, "LatSpanEvery must be non-negative"},
		{"timed without timeout", func(k *Knobs) { k.PDPolicy = PDTimed }, "PDPolicy timeout requires PDTimeout > 0"},
		{"queue without timeout", func(k *Knobs) { k.PDPolicy = PDQueueAware }, "PDPolicy queue requires PDTimeout > 0"},
		{"timed with timeout", func(k *Knobs) { k.PDPolicy, k.PDTimeout = PDTimed, 200 }, ""},
		{"unknown scheme", func(k *Knobs) { k.Scheme = SDS + 1 }, "unknown Scheme"},
		{"negative scheme", func(k *Knobs) { k.Scheme = -1 }, "unknown Scheme"},
		{"unknown policy", func(k *Knobs) { k.Policy = OpenPage + 1 }, "unknown Policy"},
		{"unknown pd policy", func(k *Knobs) { k.PDPolicy = PDQueueAware + 1 }, "unknown PDPolicy"},
		{"unknown refresh mode", func(k *Knobs) { k.RefreshMode = dram.RefElastic + 1 }, "unknown RefreshMode"},
	}
	for _, c := range cases {
		var k Knobs
		c.set(&k)
		err := k.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		// The controller's own Validate and constructor see the same verdict.
		cfg := ConfigFor(k)
		if (cfg.Validate() == nil) != (err == nil) {
			t.Errorf("%s: Config.Validate disagrees with Knobs.Validate", c.name)
		}
		if _, nerr := New(cfg); (nerr == nil) != (err == nil) {
			t.Errorf("%s: New = %v, Validate = %v", c.name, nerr, err)
		}
	}
}

// TestConfigForPairsMappingWithPolicy pins the one statement of the paper's
// policy-to-mapping pairing (Section 5.1.2).
func TestConfigForPairsMappingWithPolicy(t *testing.T) {
	t.Parallel()
	for p, want := range map[Policy]Mapping{
		RelaxedClose: RowInterleaved, RestrictedClose: LineInterleaved, OpenPage: RowInterleaved,
	} {
		k := Knobs{Scheme: PRA, Policy: p}
		cfg := ConfigFor(k)
		if cfg.Mapping != want || cfg.Knobs != k {
			t.Errorf("%v: mapping %v knobs %+v, want %v under %+v", p, cfg.Mapping, cfg.Knobs, want, k)
		}
		cfg.Knobs, cfg.Mapping = DefaultConfig().Knobs, DefaultConfig().Mapping
		if cfg != DefaultConfig() {
			t.Errorf("%v: ConfigFor changed more than the knobs and the mapping", p)
		}
	}
}
