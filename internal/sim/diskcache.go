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
// resurfacing old results — for checkpoints the stakes are higher than a
// wrong table: restoring a snapshot taken under different model semantics
// would silently contaminate every run warmed from it. A bump orphans old
// checkpoint files (their names hash the version) and System.Restore
// additionally rejects any payload whose embedded version disagrees.
// Container-format changes to the checkpoint encoding itself are versioned
// separately by ckptFormat (checkpoint.go).
// v3: Result gained always-on write-latency accounting
// (Ctrl.WriteLatencySum), so v2 cache entries would deserialize with the
// field silently zero.
const ModelVersion = "pradram-model-v3"

// fileStore is the on-disk protocol under both the result cache and the
// checkpoint store: one file per id in dir, named by a hash of the id (the
// ids embed ModelVersion, so a model bump orphans old files instead of
// loading them) and replaced atomically. It never trusts a file name: what
// load returns is verified by its caller.
type fileStore struct{ dir, ext string }

func (s fileStore) path(id string) string {
	h := sha256.Sum256([]byte(id))
	return filepath.Join(s.dir, hex.EncodeToString(h[:12])+s.ext)
}

// load returns the bytes stored for id; a missing, unreadable or empty file
// is a miss.
func (s fileStore) load(id string) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(id))
	return raw, err == nil && len(raw) > 0
}

// store writes via a unique temp file plus atomic rename, so concurrent
// writers (parallel workers, or two processes sharing the directory) can
// never interleave partial bytes.
func (s fileStore) store(id string, data []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".pradram-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.path(id))
}

// diskCache persists one Result per configuration as a JSON file, so
// repeated praexp invocations and CI reruns skip simulation entirely.
// Entries are keyed by the runKey string, the experiment budget
// (Instr/Warmup/Seed), and ModelVersion; anything else is a miss.
type diskCache struct{ fileStore }

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

func diskID(key string, opt ExpOptions) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d", ModelVersion, key, opt.Instr, opt.Warmup, opt.Seed)
}

// load returns the cached result for (key, opt), if present and valid.
// Any read, decode, or verification failure is simply a miss — the run
// re-simulates and overwrites the entry.
func (d *diskCache) load(key string, opt ExpOptions) (Result, bool) {
	raw, ok := d.fileStore.load(diskID(key, opt))
	var e diskEntry
	if !ok || json.Unmarshal(raw, &e) != nil || e.Key != key || e.ModelVersion != ModelVersion ||
		e.Instr != opt.Instr || e.Warmup != opt.Warmup || e.Seed != opt.Seed {
		return Result{}, false
	}
	return e.Result, true
}

// store persists the result of (key, opt).
func (d *diskCache) store(key string, opt ExpOptions, res Result) error {
	raw, err := json.Marshal(diskEntry{
		Key: key, ModelVersion: ModelVersion,
		Instr: opt.Instr, Warmup: opt.Warmup, Seed: opt.Seed,
		Result: res,
	})
	if err != nil {
		return err
	}
	return d.fileStore.store(diskID(key, opt), raw)
}
