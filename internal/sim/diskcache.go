package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ModelVersion stamps disk-cached results AND warmup checkpoints with the
// simulation model's semantic version. Bump it whenever a change alters
// simulated numbers, so stale caches invalidate instead of silently
// resurfacing old results. System.Restore rejects any checkpoint payload
// whose embedded version disagrees, since restoring a snapshot taken under
// different model semantics would silently contaminate the run warmed from
// it. Container-format changes to the checkpoint encoding itself are
// versioned separately by ckptFormat (checkpoint.go).
// DESIGN.md §3 ("Disk cache") lists every bump and the change that caused it.
const ModelVersion = "pradram-model-v12"

// diskCache persists one Result per configuration as a JSON file, so
// repeated praexp invocations and CI reruns skip simulation entirely.
// Entries are keyed by the runKey string, the experiment budget
// (Instr/Warmup/Seed), and ModelVersion; anything else is a miss. Each
// entry is one file in dir, named by a hash of that key (so a model bump
// orphans old files instead of loading them) and replaced atomically. A
// file name is never trusted: load verifies the key stored inside.
type diskCache struct{ dir string }

// diskEntry is the on-disk format. The key fields are stored in full (not
// just hashed into the filename) so a load can verify it found the right
// entry rather than trusting the hash.
type diskEntry struct {
	Key          string `json:"key"`
	ModelVersion string `json:"model_version"`
	Instr        int64  `json:"instr"`
	Warmup       int64  `json:"warmup"`
	Seed         uint64 `json:"seed"`
	Result       Result `json:"result"`
}

// path returns the file of (key, opt).
func (d *diskCache) path(key string, opt ExpOptions) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d", ModelVersion, key, opt.Instr, opt.Warmup, opt.Seed)))
	return filepath.Join(d.dir, hex.EncodeToString(h[:12])+".json")
}

// load returns the cached result for (key, opt), if present and valid.
// Any read, decode, or verification failure is simply a miss — the run
// re-simulates and overwrites the entry.
func (d *diskCache) load(key string, opt ExpOptions) (Result, bool) {
	raw, err := os.ReadFile(d.path(key, opt))
	var e diskEntry
	if err != nil || json.Unmarshal(raw, &e) != nil || e.Key != key || e.ModelVersion != ModelVersion ||
		e.Instr != opt.Instr || e.Warmup != opt.Warmup || e.Seed != opt.Seed {
		return Result{}, false
	}
	return e.Result, true
}

// store persists the result of (key, opt) via a unique temp file plus an
// atomic rename, so concurrent writers (parallel workers, or two processes
// sharing the directory) can never interleave partial bytes.
func (d *diskCache) store(key string, opt ExpOptions, res Result) error {
	raw, err := json.Marshal(diskEntry{
		Key: key, ModelVersion: ModelVersion,
		Instr: opt.Instr, Warmup: opt.Warmup, Seed: opt.Seed,
		Result: res,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, ".pradram-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), d.path(key, opt))
}
