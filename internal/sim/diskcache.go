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
// v3: Result gained always-on write-latency accounting
// (Ctrl.WriteLatencySum), so v2 cache entries would deserialize with the
// field silently zero.
// v4: a write merged into a queued write wakes its channel, as an enqueue
// does; under PRA a grown mask can make a command legal before the armed
// wake, so PRA results can differ.
// v5: the per-row activation counters are exact (one map per bank, as in
// PRAC); the bounded table's spill floor, which raised alerts on benign
// traffic under elastic refresh, is gone, so mitigation runs that spilled
// can differ.
// v6: speed grades derive from one device spec; outside DDR3-1600, tXP,
// tXPDLL, tXS, tCKE, tRFM (and tREFI at 1866/2133) moved, so grade= runs differ.
// v7: a powered-down rank's self-refresh deadline bounds its channel's
// sleep, so escalation happens when the rank's idle time reaches SRTimeout
// rather than at the next pass some other event causes; runs with
// SRTimeout > 0 can differ.
// v8: the DRAM runs at each bin's exact clock, 24:5 at DDR3-1333 and 24:7 at
// DDR3-1866 (5 and 3 CPU cycles before), so grade= runs at those bins differ.
// v9: Result carries its run's DRAM clock (Rate), so a v8 entry of a grade=
// run would decode with the clock silently DDR3-1600's.
// v10: single-core experiment runs warm functionally up to a 50 k detailed
// tail (Runner.config), so their Results differ.
const ModelVersion = "pradram-model-v10"

// fileStore is the result cache's on-disk protocol: one file per id in dir,
// named by a hash of the id (the ids embed ModelVersion, so a model bump
// orphans old files instead of loading them) and replaced atomically. It
// never trusts a file name: what load returns is verified by its caller.
type fileStore struct{ dir string }

func (s fileStore) path(id string) string {
	h := sha256.Sum256([]byte(id))
	return filepath.Join(s.dir, hex.EncodeToString(h[:12])+".json")
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
