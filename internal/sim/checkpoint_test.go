package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/cpu"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/workload"
)

// warmAndCheckpoint builds cfg, runs its warmup, and returns the
// checkpoint bytes.
func warmAndCheckpoint(t *testing.T, cfg Config) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreAndMeasure builds cfg, installs the checkpoint, and runs the
// measured window.
func restoreAndMeasure(t *testing.T, cfg Config, data []byte) (*System, Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestCheckpointBitIdentityMatrix is the tentpole's correctness contract:
// for every activation scheme crossed with representative workloads (plus
// the DBI, ECC, NoSkip, and four-channel variants), warmup → checkpoint →
// restore into a fresh system → measure must be bit-identical to a
// monolithic Run — same Result, same epoch timeline, same event log.
func TestCheckpointBitIdentityMatrix(t *testing.T) {
	t.Parallel()
	type variant struct {
		name string
		mod  func(*Config)
	}
	variants := []variant{{"plain", func(*Config) {}}}
	for _, sch := range memctrl.Schemes() {
		for _, wl := range []string{"GUPS", "LinkedList", "bzip2"} {
			sch, wl := sch, wl
			name := fmt.Sprintf("%s/%s", sch, wl)
			vs := variants
			if sch == memctrl.PRA && wl == "GUPS" {
				// The case-study variants ride on one cell of the matrix
				// rather than multiplying the whole sweep.
				vs = []variant{
					{"plain", func(*Config) {}},
					{"DBI", func(c *Config) { c.DBI = true }},
					{"ECC", func(c *Config) { c.ECC = true }},
					{"noskip", func(c *Config) { c.NoSkip = true }},
					{"4ch", fourChannels},
					{"4ch-hammer", fourChannelHammer},
					{"DDR3-1866", ddr31866},
					{"functional-1core", functionalWarm(1)},
					{"functional-4core", functionalWarm(4)},
					{"functional-only", functionalOnly},
				}
			}
			for _, v := range vs {
				v := v
				sub := name
				if v.name != "plain" {
					sub = name + "/" + v.name
				}
				t.Run(sub, func(t *testing.T) {
					t.Parallel()
					cfg := skipCfg(wl)
					cfg.Scheme = sch
					v.mod(&cfg)

					mono, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rm, err := mono.Run()
					if err != nil {
						t.Fatal(err)
					}
					data := warmAndCheckpoint(t, cfg)
					restored, rr := restoreAndMeasure(t, cfg, data)
					checkIdentical(t, mono, restored, rm, rr)
					if cfg.MitThreshold > 0 && rr.Ctrl.Alerts == 0 {
						t.Error("hammer cell raised no alerts; the mitigation cell is vacuous")
					}
				})
			}
		}
	}
}

// TestCheckpointProducerKeepsMeasuring proves a checkpoint is a pure
// snapshot: the system that produced it can keep running its own measured
// window and still matches a monolithic run exactly.
func TestCheckpointProducerKeepsMeasuring(t *testing.T) {
	t.Parallel()
	cfg := skipCfg("GUPS")
	cfg.Scheme = memctrl.PRA
	producer, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Warmup(); err != nil {
		t.Fatal(err)
	}
	if _, err := producer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rp, err := producer.Measure()
	if err != nil {
		t.Fatal(err)
	}
	mono, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := mono.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, mono, producer, rm, rp)
}

// TestCheckpointTraceCapture covers the Capture path end to end: a
// restored capture run must record exactly the request stream the
// monolithic capture run records.
func TestCheckpointTraceCapture(t *testing.T) {
	t.Parallel()
	cfg := skipCfg("LinkedList")
	cfg.Capture = true
	mono, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := mono.Run()
	if err != nil {
		t.Fatal(err)
	}
	data := warmAndCheckpoint(t, cfg)
	restored, rr := restoreAndMeasure(t, cfg, data)
	checkIdentical(t, mono, restored, rm, rr)
	if !reflect.DeepEqual(mono.Trace(), restored.Trace()) {
		t.Errorf("captured traces differ: %d vs %d records",
			len(mono.Trace().Records), len(restored.Trace().Records))
	}
}

// TestCheckpointFieldExclusions justifies, one by one, every Config field
// the warmup fingerprint leaves out: changing the field must not change
// the fingerprint, and a checkpoint produced WITHOUT the field set must
// restore into a config WITH it and measure bit-identically to that
// config's own monolithic run. Together the two assertions prove the
// field cannot influence warmup execution.
func TestCheckpointFieldExclusions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		why  string
		mod  func(*Config)
	}{
		{"ECC", "timing is unchanged; only energy accounting differs, and energy resets at the boundary",
			func(c *Config) { c.ECC = true }},
		{"NoPartialIO", "affects only write-burst energy and word counters, never command timing",
			func(c *Config) { c.NoPartialIO = true }},
		{"InstrPerCore", "the retire target only drives the measured window",
			func(c *Config) { c.InstrPerCore = 6_000 }},
		{"Capture", "the capture wrapper forwards synchronously and warmup records are dropped at the boundary",
			func(c *Config) { c.Capture = true }},
		{"Obs", "telemetry observes state without influencing it (PR 3's bit-identity contract)",
			func(c *Config) { c.Obs = ObsConfig{EpochCycles: 256, EventLevel: obs.LevelCmd} }},
		{"PowerCal", "calibration scales the finished energy breakdown post-hoc; no simulated state reads it",
			func(c *Config) { c.PowerCal = "ghose:10" }},
		{"LatBreak", "attribution observes command issue without changing it, and the sweep frontier is checkpointed unconditionally",
			func(c *Config) { c.LatBreak = true; c.LatSpanEvery = 8 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := skipCfg("GUPS")
			base.Scheme = memctrl.PRA
			variant := base
			tc.mod(&variant)

			fb, ok := WarmupFingerprint(base)
			if !ok {
				t.Fatal("base config not checkpointable")
			}
			fv, ok := WarmupFingerprint(variant)
			if !ok {
				t.Fatal("variant config not checkpointable")
			}
			if fb != fv {
				t.Fatalf("%s changed the warmup fingerprint; it is supposed to be excluded (%s)", tc.name, tc.why)
			}

			data := warmAndCheckpoint(t, base)
			mono, err := New(variant)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := mono.Run()
			if err != nil {
				t.Fatal(err)
			}
			restored, rr := restoreAndMeasure(t, variant, data)
			checkIdentical(t, mono, restored, rm, rr)
		})
	}
}

// TestWarmupFingerprintFields classifies every sim.Config field (the
// promoted fields of the embedded knobs included) as fingerprint-relevant
// or not and asserts the fingerprint reacts exactly as classified, and that
// the fields it ignores are exactly warmupExcluded. A future Config field is
// fingerprinted by default — at worst a cold warmup — and fails this test
// until it is classified here; excluding it additionally needs an entry in
// warmupExcluded and a cross-restore row in TestCheckpointFieldExclusions.
func TestWarmupFingerprintFields(t *testing.T) {
	t.Parallel()
	// For each field: a mutation keeping the config checkpointable, and
	// whether the fingerprint must change. Fields that make a config
	// un-checkpointable are marked unsupported.
	type probe struct {
		mutate      func(*Config)
		wantChange  bool
		unsupported bool
	}
	probes := map[string]probe{
		"Workload":      {mutate: func(c *Config) { c.Workload = "LinkedList" }, wantChange: true},
		"Scheme":        {mutate: func(c *Config) { c.Scheme = memctrl.PRA }, wantChange: true},
		"Policy":        {mutate: func(c *Config) { c.Policy = memctrl.RestrictedClose }, wantChange: true},
		"DBI":           {mutate: func(c *Config) { c.DBI = true }, wantChange: true},
		"ECC":           {mutate: func(c *Config) { c.ECC = true }, wantChange: false},
		"Capture":       {mutate: func(c *Config) { c.Capture = true }, wantChange: false},
		"NoTimingRelax": {mutate: func(c *Config) { c.NoTimingRelax = true }, wantChange: true},
		"NoPartialIO":   {mutate: func(c *Config) { c.NoPartialIO = true }, wantChange: false},
		"NoMaskCycle":   {mutate: func(c *Config) { c.NoMaskCycle = true }, wantChange: true},
		"Cores":         {mutate: func(c *Config) { c.Cores = 2 }, wantChange: true},
		"ActiveCores":   {mutate: func(c *Config) { c.ActiveCores = 1 }, wantChange: true},
		"InstrPerCore":  {mutate: func(c *Config) { c.InstrPerCore = 123_456 }, wantChange: false},
		"WarmupPerCore": {mutate: func(c *Config) { c.WarmupPerCore = 4_321 }, wantChange: true},
		"Seed":          {mutate: func(c *Config) { c.Seed = 99 }, wantChange: true},
		"MaxCycles":     {mutate: func(c *Config) { c.MaxCycles = 1 << 40 }, wantChange: true},
		"NoSkip":        {mutate: func(c *Config) { c.NoSkip = true }, wantChange: true},
		"Channels":      {mutate: func(c *Config) { c.Channels = 4 }, wantChange: true},
		"CPU":           {mutate: func(c *Config) { c.CPU.ROB = 64 }, wantChange: true},
		"Generator":     {unsupported: true},
		"Timing":        {mutate: func(c *Config) { t := c.timingOrDefault(); t.TRCD = 99; c.Timing = &t }, wantChange: true},
		"Obs":           {mutate: func(c *Config) { c.Obs = ObsConfig{EpochCycles: 64} }, wantChange: false},
		"PDPolicy":      {mutate: func(c *Config) { c.PDPolicy = memctrl.PDNone }, wantChange: true},
		"PDTimeout":     {mutate: func(c *Config) { c.PDPolicy = memctrl.PDTimed; c.PDTimeout = 100 }, wantChange: true},
		"SRTimeout":     {mutate: func(c *Config) { c.SRTimeout = 10_000 }, wantChange: true},
		"PDSlowExit":    {mutate: func(c *Config) { c.PDSlowExit = true }, wantChange: true},
		"APD":           {mutate: func(c *Config) { c.APD = true }, wantChange: true},
		"RefreshMode":   {mutate: func(c *Config) { c.RefreshMode = dram.RefPerBank }, wantChange: true},
		"PowerCal":      {mutate: func(c *Config) { c.PowerCal = "ghose" }, wantChange: false},

		// The functional part of the warmup steers it as the detailed part does.
		"FunctionalWarmupPerCore": {mutate: func(c *Config) { c.FunctionalWarmupPerCore = 4_321 }, wantChange: true},

		// Latency attribution observes scheduling without influencing it
		// (latency.go's bit-identity tests), and the sweep frontier each
		// request carries is maintained — and checkpointed — regardless of
		// the flag, so a checkpoint serves both settings.
		"LatBreak":     {mutate: func(c *Config) { c.LatBreak = true }, wantChange: false},
		"LatSpanEvery": {mutate: func(c *Config) { c.LatBreak = true; c.LatSpanEvery = 16 }, wantChange: false},
		// Mitigation steers alert/RFM scheduling during warmup.
		"MitThreshold":   {mutate: func(c *Config) { c.MitThreshold = 32 }, wantChange: true},
		"MitAlertCycles": {mutate: func(c *Config) { c.MitThreshold = 32; c.MitAlertCycles = 288 }, wantChange: true},
	}

	var ignored []string
	for _, name := range leafFields(reflect.TypeOf(Config{})) {
		p, ok := probes[name]
		if !ok {
			t.Errorf("Config field %q is not classified for the warmup fingerprint; "+
				"decide whether it can influence warmup execution, add it to warmupExcluded "+
				"if not, and record the decision here and in TestCheckpointFieldExclusions", name)
			continue
		}
		base := DefaultConfig("GUPS")
		base.WarmupPerCore = 1000
		fp0, ok := WarmupFingerprint(base)
		if !ok {
			t.Fatal("base config must be checkpointable")
		}
		mut := base
		if p.unsupported {
			mut.Generator = func(coreID int, seed uint64, region workload.Region) cpu.Generator { return nil }
			if _, ok := WarmupFingerprint(mut); ok {
				t.Errorf("%s: config must be unsupported for checkpointing", name)
			}
			continue
		}
		p.mutate(&mut)
		fp1, ok := WarmupFingerprint(mut)
		if !ok {
			t.Errorf("%s: mutated config unexpectedly not checkpointable", name)
			continue
		}
		if changed := fp0 != fp1; changed != p.wantChange {
			t.Errorf("%s: fingerprint change = %v, classified as %v", name, changed, p.wantChange)
		} else if !changed {
			ignored = append(ignored, name)
		}
	}
	sort.Strings(ignored)
	excluded := append([]string(nil), warmupExcluded...)
	sort.Strings(excluded)
	if !reflect.DeepEqual(ignored, excluded) {
		t.Errorf("fields the fingerprint ignores = %v, warmupExcluded = %v", ignored, excluded)
	}

	// The fingerprint hashes the Config's %#v rendering, which prints an
	// address for anything reached through a pointer, func, channel or
	// interface — stable within a process, useless across two. Timing and
	// Generator are the two such fields, and WarmupFingerprint clears both;
	// a third must be normalised there (or excluded) before it lands.
	var unstable func(path string, typ reflect.Type)
	unstable = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			if path != "Config.Timing" && path != "Config.Generator" {
				t.Errorf("%s (%v) renders as an address; normalise it in WarmupFingerprint", path, typ)
			}
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				unstable(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Slice, reflect.Array, reflect.Map:
			unstable(path+"[]", typ.Elem())
		}
	}
	unstable("Config", reflect.TypeOf(Config{}))

	// Zero or negative warmup leaves nothing to checkpoint.
	noWarm := DefaultConfig("GUPS")
	noWarm.WarmupPerCore = 0
	if _, ok := WarmupFingerprint(noWarm); ok {
		t.Error("config without a warmup phase must not be checkpointable")
	}
}

// timingOrDefault returns the effective DDR3 timing set (Config.Timing, or
// the DDR3-1600 default a nil Timing selects).
func (c Config) timingOrDefault() dram.Timing { return c.ctrlConfig().Timing }

// leafFields lists a struct type's field names with embedded structs
// flattened, i.e. every name a selector on the struct can reach.
func leafFields(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Anonymous {
			names = append(names, leafFields(f.Type)...)
		} else {
			names = append(names, f.Name)
		}
	}
	return names
}

// TestCheckpointNormalization pins the fingerprint's config normalization:
// spellings of the same effective warmup must share a fingerprint.
func TestCheckpointNormalization(t *testing.T) {
	t.Parallel()
	base := DefaultConfig("GUPS")
	base.WarmupPerCore = 1000
	fp0, _ := WarmupFingerprint(base)

	spelled := base
	spelled.Workload = "gups" // case-insensitive canonical name
	if fp, _ := WarmupFingerprint(spelled); fp != fp0 {
		t.Error("canonical workload spelling must not change the fingerprint")
	}
	spelled = base
	spelled.ActiveCores = base.Cores // explicit == default (all cores)
	if fp, _ := WarmupFingerprint(spelled); fp != fp0 {
		t.Error("explicit ActiveCores == Cores must match the 0 default")
	}
	spelled = base
	tm := spelled.timingOrDefault()
	spelled.Timing = &tm // explicit default timing == nil
	if fp, _ := WarmupFingerprint(spelled); fp != fp0 {
		t.Error("explicit default Timing must match the nil default")
	}
}

// TestRestoreRejectsMismatches covers the guard rails: wrong fingerprint,
// wrong model/format headers, reuse of a warmed system, and a checkpoint
// after Measure must all be refused with a clear error, leaving the target
// untouched.
func TestRestoreRejectsMismatches(t *testing.T) {
	t.Parallel()
	cfg := quickCheckpointCfg("GUPS")
	data := warmAndCheckpoint(t, cfg)

	other := cfg
	other.Seed = cfg.Seed + 1
	s, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(data); err == nil {
		t.Error("restore with a mismatched fingerprint must fail")
	}
	// The refused system is untouched and still runs cold.
	if _, err := s.Run(); err != nil {
		t.Errorf("system refused a checkpoint but can no longer run: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(data); err == nil {
		t.Error("restoring into an already-warmed system must fail")
	}
	// A checkpoint holds the warmup boundary's state without the measured
	// window's statistics; one taken after Measure restored to a run that
	// counted its cycles from the wrong point (GUPS at 5k + 5k instructions
	// per core: 104 cycles against the cold run's 31 235).
	if _, err := s2.Measure(); err != nil {
		t.Fatal(err)
	}
	_, err = s2.Checkpoint()
	if want := "sim: checkpoint after Measure: it must be taken at the warmup boundary"; err == nil || err.Error() != want {
		t.Errorf("checkpoint after Measure: %v, want %q", err, want)
	}

	unck := cfg
	unck.WarmupPerCore = 0
	s3, err := New(unck)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Restore(data); err == nil {
		t.Error("restore into a non-checkpointable config must fail")
	}

	// A file of the previous container format (same header, the byte after
	// the magic one lower, CRC valid) holds the cache's event heap and the
	// cpu's anchor record where v5 has lanes and none: it must be refused
	// by number before any component decodes it, and the system must then
	// warm cold to the monolithic result.
	old := append([]byte(nil), data...)
	formatAt := 8 + len(ckptMagic) // u64 length prefix, then the magic
	if old[formatAt] != ckptFormat {
		t.Fatalf("format byte not at offset %d", formatAt)
	}
	old[formatAt] = ckptFormat - 1
	old = recrc(old)
	s4, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s4.Restore(old)
	if want := fmt.Sprintf("sim: checkpoint format %d, want %d", ckptFormat-1, ckptFormat); err == nil || err.Error() != want {
		t.Errorf("restore of an old-format file: %v, want %q", err, want)
	}
	got, err := s4.Run()
	if err != nil {
		t.Fatalf("cold warmup after an old-format file: %v", err)
	}
	if want, err := RunOne(cfg); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("cold warmup after an old-format file diverged from the monolithic run (err %v)", err)
	}
}

// quickCheckpointCfg is a small checkpointable config for the corruption
// and guard-rail tests.
func quickCheckpointCfg(wl string) Config {
	cfg := DefaultConfig(wl)
	cfg.Cores = 2
	cfg.InstrPerCore = 2_000
	cfg.WarmupPerCore = 1_000
	return cfg
}

// TestRestoreRejectsCorruption flips every byte region of a valid
// checkpoint and asserts restore either fails cleanly (never panics,
// never installs partial state — proven by the system still cold-warming
// to the exact monolithic result) or, where the flip lands in bytes the
// CRC protects, is caught by the CRC check itself.
func TestRestoreRejectsCorruption(t *testing.T) {
	t.Parallel()
	cfg := quickCheckpointCfg("GUPS")
	data := warmAndCheckpoint(t, cfg)
	want, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Stride through the payload (covering every region without running
	// len(data) simulations), plus the CRC trailer and a truncation.
	stride := len(data)/97 + 1
	for off := 0; off < len(data); off += stride {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x41
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(corrupt); err == nil {
			t.Fatalf("restore accepted a checkpoint corrupted at byte %d", off)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("cold fallback after corrupt restore (byte %d) failed: %v", off, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cold fallback after corrupt restore (byte %d) diverged — restore leaked state", off)
		}
	}
	for _, n := range []int{0, 3, len(data) / 2, len(data) - 1} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(data[:n]); err == nil {
			t.Fatalf("restore accepted a checkpoint truncated to %d bytes", n)
		}
	}
}

// FuzzCheckpointRoundTrip randomizes the configuration and a corruption
// site: the clean round trip must measure bit-identically to a monolithic
// run, the corrupted restore must fail cleanly and leave the system able to
// cold-warm to the same result, and the same corruption with its CRC repaired
// must be rejected as cleanly or restore to exactly the bytes it carries.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(int64(2_000), uint64(1), uint8(0), uint8(0), uint16(0))
	f.Add(int64(1_000), uint64(7), uint8(1), uint8(1), uint16(37))
	f.Add(int64(3_000), uint64(42), uint8(2), uint8(2), uint16(999))
	f.Fuzz(func(t *testing.T, instr int64, seed uint64, wsel, ssel uint8, site uint16) {
		if instr < 200 || instr > 5_000 {
			t.Skip()
		}
		workloads := []string{"GUPS", "LinkedList", "bzip2"}
		schemes := memctrl.Schemes()
		cfg := DefaultConfig(workloads[int(wsel)%len(workloads)])
		cfg.Scheme = schemes[int(ssel)%len(schemes)]
		cfg.Cores = 2
		cfg.InstrPerCore = instr
		cfg.WarmupPerCore = instr / 2
		cfg.Seed = seed%1000 + 1

		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Warmup(); err != nil {
			t.Fatal(err)
		}
		data, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Measure()
		if err != nil {
			t.Fatal(err)
		}

		clean, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := clean.Restore(data); err != nil {
			t.Fatalf("clean restore failed: %v", err)
		}
		got, err := clean.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restored run diverged from monolithic (instr %d, seed %d, %s/%s)",
				instr, seed, cfg.Scheme, cfg.Workload)
		}

		corrupt := append([]byte(nil), data...)
		corrupt[int(site)%len(corrupt)] ^= 0x5A
		dirty, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(corrupt, data) {
			t.Fatal("corruption was a no-op") // unreachable: 0x5A never XORs to zero
		}
		rerr := dirty.Restore(corrupt)
		if rerr == nil {
			t.Fatal("corrupted restore succeeded")
		}
		got, err = dirty.Run()
		if err != nil {
			t.Fatalf("cold fallback failed after rejected restore (%v): %v", rerr, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("cold fallback diverged — rejected restore leaked state")
		}

		// The same flip with the CRC repaired gets past the container check
		// to the component decoders (TestRestoreMutationSweep's contract), at
		// the site and at its mirror image from the end of the body: the
		// front of the file holds the header, ROBs and generators, the back
		// the MSHRs, lanes and the controller.
		body := len(data) - 4
		for _, off := range []int{int(site) % body, body - 1 - int(site)%body} {
			mutated := append([]byte(nil), data...)
			mutated[off] ^= 0x5A
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("CRC-repaired flip at byte %d", off)
			if checkMutatedRestore(t, sys, recrc(mutated), what) {
				continue
			}
			got, err := sys.Run()
			if err != nil {
				t.Fatalf("%s: cold fallback failed after the rejected restore: %v", what, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cold fallback diverged — rejected restore leaked state", what)
			}
		}
	})
}

// TestCheckpointErrorsWrapErrCorrupt pins the error contract callers
// branch on: byte-level damage surfaces as checkpoint.ErrCorrupt.
func TestCheckpointErrorsWrapErrCorrupt(t *testing.T) {
	t.Parallel()
	cfg := quickCheckpointCfg("GUPS")
	data := warmAndCheckpoint(t, cfg)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xFF
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(corrupt); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("mid-payload corruption should wrap ErrCorrupt, got %v", err)
	}
}

// TestDBICheckpointSizeBounded: the DBI checkpoints the dirty rows it
// indexes, and the number of live rows saturates with the L2, so a four
// times longer warmup may not grow the checkpoint much. State the DBI keeps
// per row entry it ever made, rather than per live row, grows with the
// warmup instead.
func TestDBICheckpointSizeBounded(t *testing.T) {
	t.Parallel()
	size := func(warmup int64) int {
		cfg := DefaultConfig("lbm")
		cfg.Cores, cfg.Scheme, cfg.DBI = 1, memctrl.PRA, true
		cfg.InstrPerCore, cfg.WarmupPerCore = 1_000, warmup
		return len(warmAndCheckpoint(t, cfg))
	}
	short, long := size(200_000), size(800_000)
	t.Logf("DBI checkpoint: %d bytes after a 200k warmup, %d after 800k", short, long)
	if growth := float64(long)/float64(short) - 1; growth > 0.10 {
		t.Errorf("DBI checkpoint grew %.0f%% from a 200k to an 800k warmup (%d -> %d bytes), want at most 10%%",
			100*growth, short, long)
	}
}
