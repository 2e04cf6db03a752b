package sim

import (
	"bytes"
	"reflect"
	"testing"

	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/trace"
	"pradram/internal/workload"
)

// The multi-program mix determinism matrix (DESIGN.md §4j): custom
// `name[:count]` co-run specs must behave exactly like every other
// workload — streaming v2 replay of the captured trace bit-identical to
// materialized replay — plus carry correct per-core attribution and
// survive warmup checkpointing.

// mixCells spans the spec grammar: explicit counts, mixed count/no-count
// entries, tensor streams co-running with benchmarks, and the 4-way
// heterogeneous form.
func mixCells() []string {
	return []string{
		"GUPS:2,LinkedList:2",
		"TensorKCP,GUPS:2,lbm",
		"mcf,em3d,GUPS,LinkedList",
	}
}

func mixCfg(spec string) Config {
	cfg := DefaultConfig(spec)
	cfg.Cores = 4
	cfg.InstrPerCore = 8_000
	cfg.WarmupPerCore = 2_000
	cfg.Capture = true
	return cfg
}

// TestMixDeterminismMatrix checks, over mix specs, per-core attribution of
// the co-run and that its captured request stream replays identically
// materialized and streamed from its v2 encoding.
func TestMixDeterminismMatrix(t *testing.T) {
	t.Parallel()
	for _, spec := range mixCells() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			cfg := mixCfg(spec)
			if spec == "TensorKCP,GUPS:2,lbm" {
				// The tensor stream's dependent all-miss loads make
				// simulated time expensive; a shorter window still
				// exercises the co-run.
				cfg.InstrPerCore = 2_000
				cfg.WarmupPerCore = 500
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Per-core attribution: Apps mirrors the spec expansion and
			// every core ran.
			apps, err := workload.Set(spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Apps, apps) {
				t.Errorf("Result.Apps = %v, want %v", res.Apps, apps)
			}
			if len(res.CoreIPC) != 4 {
				t.Fatalf("CoreIPC has %d entries, want 4", len(res.CoreIPC))
			}
			for i, ipc := range res.CoreIPC {
				if ipc <= 0 {
					t.Errorf("core %d (%s): IPC %v, want > 0", i, apps[i], ipc)
				}
			}

			// Replay equivalence: materialized replay == streaming v2
			// replay of the captured request stream.
			tr := sys.Trace()
			var v2 bytes.Buffer
			if err := tr.SaveV2(&v2); err != nil {
				t.Fatal(err)
			}
			want, err := trace.ReplayStream(tr.Stream(), memctrl.DefaultConfig(), trace.ReplayOpts{})
			if err != nil {
				t.Fatal(err)
			}
			f, err := trace.OpenV2(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReplayStream(f.Stream(), memctrl.DefaultConfig(), trace.ReplayOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Error("streaming replay of the mix capture diverged")
			}
		})
	}
}

// TestMixCheckpointIdentity proves custom mix specs compose with warmup
// checkpointing: warmup → checkpoint → restore → measure equals a
// monolithic run, and the canonicalized spec is what the fingerprint
// carries (equivalent spellings interchange checkpoints).
func TestMixCheckpointIdentity(t *testing.T) {
	t.Parallel()
	cfg := mixCfg("GUPS:2,LinkedList:2")
	cfg.Capture = false
	cfg.Obs = ObsConfig{EpochCycles: 512, EventLevel: obs.LevelCmd}
	mono, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := mono.Run()
	if err != nil {
		t.Fatal(err)
	}
	data := warmAndCheckpoint(t, cfg)
	// Restore under an equivalent spelling of the same spec: the
	// fingerprint stores the canonical form, so this must be accepted.
	alt := cfg
	alt.Workload = "gups:2, linkedlist:2"
	restored, rr := restoreAndMeasure(t, alt, data)
	checkIdentical(t, mono, restored, rm, rr)
}
