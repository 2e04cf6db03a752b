package sim

import "os"

// This file is the campaign half of warmup checkpointing (DESIGN.md §4e).
// The Runner memoizes one checkpoint per warmup fingerprint: the first run
// needing a fingerprint warms its own system, snapshots it, and publishes
// the bytes; every later run with the same fingerprint — same campaign or,
// with CkptDir, a later process — restores instead of re-warming. All
// reuse is validated by System.Restore (CRC, model version, fingerprint),
// and every failure path degrades to a cold warmup on the same system, so
// checkpointing can change wall-clock but never results (enforced by
// TestRunnerCheckpointIdentical).

// ckptStore persists warmup checkpoints under a directory (-ckpt-dir) as raw
// System.Checkpoint payloads, one file per fingerprint and ModelVersion. The
// payload embeds both as well and System.Restore re-checks them, so the store
// never needs to trust a filename — and load's bytes MUST still go through
// Restore, which catches a stale or corrupt payload (the caller then warms
// cold).
type ckptStore struct{ files fileStore }

func ckptID(fp string) string { return "ckpt|" + ModelVersion + "|" + fp }

// load returns the stored checkpoint for a warmup fingerprint.
func (s *ckptStore) load(fp string) ([]byte, bool) { return s.files.load(ckptID(fp)) }

// store persists a checkpoint for a warmup fingerprint (atomic rename).
func (s *ckptStore) store(fp string, data []byte) error { return s.files.store(ckptID(fp), data) }

// remove drops the stored checkpoint for a warmup fingerprint: an entry a
// restore rejected is re-made rather than re-read forever.
func (s *ckptStore) remove(fp string) { os.Remove(s.files.path(ckptID(fp))) }

// The checkpoint memo is bounded by what the campaign declared. A wave
// (Precompute, RunSystems) counts, per warmup fingerprint, the runs of it
// that have not finished (ckptDeclare); the producer of a fingerprint takes
// a snapshot only if another of them — or -ckpt-dir — can use it, and the
// bytes are dropped when the last one finishes (ckptRelease). A run outside any wave
// (a lazy Run or runOne) always snapshots and the memo keeps it, since
// nothing says what will ask next.

// ckptDeclare registers a run a wave is about to execute, given its
// configuration (or why it has none), and returns its warmup fingerprint
// ("" when it cannot be checkpointed; a key that expands to no configuration
// is reported by the run itself).
func (r *Runner) ckptDeclare(cfg Config, err error) string {
	fp, ok := WarmupFingerprint(cfg)
	if r.opt.NoCheckpoint || err != nil || !ok {
		return ""
	}
	r.shareMu.Lock()
	r.sharing[fp]++
	r.shareMu.Unlock()
	return fp
}

// ckptRelease notes that a declared run finished, however it got its
// result; the last run of a fingerprint takes the snapshot with it.
func (r *Runner) ckptRelease(fp string) {
	if fp == "" {
		return
	}
	r.shareMu.Lock()
	defer r.shareMu.Unlock()
	if r.sharing[fp]--; r.sharing[fp] == 0 {
		delete(r.sharing, fp)
		r.ckpts.drop(fp)
	}
}

// runOne builds one configuration's system and runs it (runSystem).
func (r *Runner) runOne(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.runSystem(s)
}

// runSystem takes a freshly built system to its Result through the
// checkpoint layer: reuse a warmed snapshot when one exists, produce one when
// this is the first run of its fingerprint, and fall back to a monolithic run
// whenever the configuration cannot be checkpointed or a restore is rejected.
func (r *Runner) runSystem(s *System) (Result, error) {
	fp, ok := WarmupFingerprint(s.cfg)
	if r.opt.NoCheckpoint || !ok {
		return s.Run()
	}
	produced := false
	data, err := r.ckpts.do(fp, func() ([]byte, error) {
		produced = true
		return r.warm(s, fp)
	})
	if produced {
		if err != nil {
			return Result{}, err
		}
		return s.Measure()
	}
	// Restore validates everything and leaves s pristine on failure, so the
	// fallback warms the very same system cold — as it does when the
	// producer failed or had no snapshot (nil) to share.
	if err == nil && s.Restore(data) == nil {
		r.ckptHits.Add(1)
		return s.Measure()
	}
	r.ckptMisses.Add(1)
	return s.Run()
}

// warm is the producer's half of runSystem: it brings s to its warmup boundary
// and returns the snapshot later runs of the fingerprint restore, nil when
// nothing wants one or s cannot be checkpointed (this run proceeds
// regardless). A persisted checkpoint from an earlier process replaces the
// warmup if it restores; a rejected entry is deleted and re-made.
func (r *Runner) warm(s *System, fp string) ([]byte, error) {
	if r.ckptDisk != nil {
		if stored, ok := r.ckptDisk.load(fp); ok {
			if s.Restore(stored) == nil {
				r.ckptHits.Add(1)
				return stored, nil
			}
			r.ckptDisk.remove(fp)
		}
	}
	r.ckptMisses.Add(1)
	if err := s.Warmup(); err != nil {
		return nil, err
	}
	r.shareMu.Lock()
	n, declared := r.sharing[fp]
	r.shareMu.Unlock()
	if declared && n == 1 && r.ckptDisk == nil {
		return nil, nil // this run is the wave's only one left with fp: nothing could use a snapshot
	}
	snap, err := s.Checkpoint()
	if err == nil && r.ckptDisk != nil {
		// A failed store only costs a future re-warmup.
		_ = r.ckptDisk.store(fp, snap)
	}
	return snap, nil
}
