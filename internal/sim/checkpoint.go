package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"reflect"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
	"pradram/internal/workload"
)

// Warmup checkpointing (DESIGN.md §4e). A checkpoint captures the full
// simulator state at the warmup boundary — the instant Warmup returns,
// immediately after every statistic was reset — so a campaign can warm a
// configuration once and measure many variants from the same state.
// Restore-then-Measure is bit-identical to a monolithic Run: the bit-
// identity matrix in checkpoint_test.go enforces it per scheme, workload,
// and variant.
//
// Checkpoints are keyed by a warmup fingerprint: a hash over the normalised
// Config itself, minus the fields on warmupExcluded. Everything is included
// unless excluded, so a Config field nobody classified costs one cold
// warmup, never a wrong reuse. Each exclusion is justified by a
// cross-restore test (TestCheckpointFieldExclusions), and
// TestWarmupFingerprintFields holds the list equal to the set of fields the
// fingerprint ignores.

// warmupExcluded names the Config fields (promoted ones included) that
// cannot influence execution up to the warmup boundary.
var warmupExcluded = []string{
	"ECC",          // energy accounting of the ninth chip only; timing unchanged
	"Capture",      // wraps the backend in a recorder that Warmup resets at the boundary
	"NoPartialIO",  // I/O energy accounting only
	"InstrPerCore", // the measured window's length
	"Obs",          // probes are read-only views
	"PowerCal",     // applied post-hoc to the energy breakdown
	// Attribution observes scheduling without influencing it, and the sweep
	// frontier each request carries is checkpointed whether it is on or off.
	"LatBreak", "LatSpanEvery",
}

// WarmupFingerprint returns the checkpoint key for cfg's warmup phase and
// whether the configuration supports checkpointing at all. Configs with a
// custom Generator hook are unsupported (the hook is opaque, so equality
// of warmup behaviour cannot be established), as are configs without a
// warmup phase (there is no boundary to checkpoint).
func WarmupFingerprint(cfg Config) (string, bool) {
	if cfg.Generator != nil || cfg.FunctionalWarmupPerCore+cfg.WarmupPerCore <= 0 {
		return "", false
	}
	// Normalise, so spellings of the same effective warmup share a key: the
	// canonical workload name, the effective core count, and the timing set
	// the controller will run with, which fixes its clock ratio (by value,
	// beside the Config, whose pointer is cleared — an address is not a
	// configuration).
	mc := cfg.ctrlConfig()
	cfg.Timing = nil
	cfg.Workload = workload.Canonical(cfg.Workload)
	if cfg.ActiveCores == 0 {
		cfg.ActiveCores = cfg.Cores
	}
	v := reflect.ValueOf(&cfg).Elem()
	for _, name := range warmupExcluded {
		v.FieldByName(name).SetZero()
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v|%#v", cfg, mc.Timing)))
	return hex.EncodeToString(h[:16]), true
}

// ckptMagic stamps checkpoint files; ckptFormat is the container-format
// version (bump on any layout change). Model-semantics changes are covered
// by ModelVersion, which is embedded alongside.
const (
	ckptMagic  = "pradram-ckpt"
	ckptFormat = 8 // v8: cache ways as tags and dirty masks; no scratch clocks, statistics or caches of other fields
)

// Checkpoint serializes the system's complete post-warmup state. It must
// be called at the warmup boundary — after Warmup returned nil and before
// Measure — because the encoding relies on all statistics and energy
// accumulators being freshly reset there (they are omitted from the
// payload); it refuses otherwise. The bytes are self-describing: magic,
// format version, model version, warmup fingerprint, component payloads,
// CRC32 trailer.
func (s *System) Checkpoint() ([]byte, error) {
	if !s.warmed {
		return nil, fmt.Errorf("sim: checkpoint requires a completed warmup")
	}
	if s.measured {
		return nil, fmt.Errorf("sim: checkpoint after Measure: it must be taken at the warmup boundary")
	}
	fp, ok := WarmupFingerprint(s.cfg)
	if !ok {
		return nil, fmt.Errorf("sim: config does not support checkpointing")
	}
	w := &checkpoint.Writer{}
	w.Grow(2 << 20) // cache tags, dirty masks and LRU stamps dominate: ~1.65 MB on the default geometry
	w.String(ckptMagic)
	w.U8(ckptFormat)
	w.String(ModelVersion)
	w.String(fp)
	w.I64(s.cycle)
	w.I64(s.ticks)
	for _, c := range s.cores {
		c.SaveState(w)
	}
	for _, c := range s.cores {
		sv, ok := c.Generator().(checkpoint.Saver)
		if !ok {
			return nil, fmt.Errorf("sim: generator %T is not checkpointable", c.Generator())
		}
		sv.SaveState(w)
	}
	s.hier.SaveState(w)
	s.ctrl.SaveState(w)
	buf := w.Bytes()
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// Restore installs a checkpointed warmup state into a freshly built
// System, replacing a Warmup call; follow it with Measure. The checkpoint
// must carry the current model version and the fingerprint of this
// system's own config — restore never trusts the caller to have matched
// them. Validation is transactional: the header and CRC are checked
// before any decode, every component decodes into temporaries, and state
// is only installed once the entire payload (including full consumption)
// has been verified — a failed Restore leaves the System pristine, so the
// caller can fall back to a cold Warmup on the same instance.
func (s *System) Restore(data []byte) error {
	if s.warmed || s.cycle != 0 || s.ticks != 0 {
		return fmt.Errorf("sim: restore requires a freshly built system")
	}
	fp, ok := WarmupFingerprint(s.cfg)
	if !ok {
		return fmt.Errorf("sim: config does not support checkpointing")
	}
	if len(data) < 4 {
		return fmt.Errorf("%w: too short for a checkpoint", checkpoint.ErrCorrupt)
	}
	body := data[:len(data)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(data)-4:]); got != want {
		return fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", checkpoint.ErrCorrupt, got, want)
	}
	r := checkpoint.NewReader(body)
	if magic := r.String(); r.Err() == nil && magic != ckptMagic {
		return fmt.Errorf("%w: bad magic %q", checkpoint.ErrCorrupt, magic)
	}
	if format := r.U8(); r.Err() == nil && format != ckptFormat {
		return fmt.Errorf("sim: checkpoint format %d, want %d", format, ckptFormat)
	}
	if mv := r.String(); r.Err() == nil && mv != ModelVersion {
		return fmt.Errorf("sim: checkpoint model version %q, want %q", mv, ModelVersion)
	}
	if cfp := r.String(); r.Err() == nil && cfp != fp {
		return fmt.Errorf("sim: checkpoint fingerprint %s does not match config %s", cfp, fp)
	}
	if err := r.Err(); err != nil {
		return err
	}

	cycle := r.I64()
	ticks := r.I64()
	if ticks < 0 || cycle < ticks { // cycle - ticks is the skipped count
		return fmt.Errorf("%w: clock state cycle %d, ticks %d", checkpoint.ErrCorrupt, cycle, ticks)
	}

	commits := make([]func(), 0, 2*len(s.cores)+3)
	resolvers := make([]func(core.DoneTag) (core.Done, bool), len(s.cores))
	for i, c := range s.cores {
		commit, resolve, err := c.RestoreState(r)
		if err != nil {
			return err
		}
		commits = append(commits, commit)
		resolvers[i] = resolve
	}
	resolve := func(tag core.DoneTag) (core.Done, bool) {
		if int(tag.Core) < 0 || int(tag.Core) >= len(resolvers) {
			return core.Done{}, false
		}
		return resolvers[tag.Core](tag)
	}
	gens := checkpoint.Restoring(r)
	for _, c := range s.cores {
		sv, ok := c.Generator().(checkpoint.Saver)
		if !ok {
			return fmt.Errorf("sim: generator %T is not checkpointable", c.Generator())
		}
		gens.Part(sv)
	}
	commits = append(commits, gens.Commit)
	hierCommit, fills, err := s.hier.RestoreState(r, resolve)
	if err != nil {
		return err
	}
	commits = append(commits, hierCommit)
	ctrlCommit, err := s.ctrl.RestoreState(r, fills.Claim)
	if err != nil {
		return err
	}
	commits = append(commits, ctrlCommit)
	if err := r.Done(); err != nil {
		return err
	}
	if err := fills.Unclaimed(); err != nil {
		return fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}

	for _, commit := range commits {
		commit()
	}
	s.cycle = cycle
	s.ticks = ticks
	s.endWarmup()
	return nil
}
