package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/memctrl"
)

// recrc returns payload with its CRC32 trailer recomputed, so a mutated
// checkpoint gets past the container check and reaches the component
// decoders.
func recrc(payload []byte) []byte {
	body := payload[:len(payload)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// checkMutatedRestore holds one CRC-valid mutated checkpoint to the restore
// contract: Restore either rejects it — the caller then proves the system
// pristine — or accepts it, and then the restored system's own Checkpoint
// must reproduce the mutated bytes exactly. An accepted payload that
// re-serializes differently means a field was silently rewritten or dropped
// on the way in: the state the run continues from is not the state the file
// describes. It reports whether the payload was accepted.
func checkMutatedRestore(t *testing.T, s *System, mutated []byte, what string) bool {
	t.Helper()
	if err := s.Restore(mutated); err != nil {
		return false
	}
	got, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("%s: accepted, but the restored system cannot checkpoint: %v", what, err)
	}
	if !bytes.Equal(got, mutated) {
		at := 0
		for at < len(got) && at < len(mutated) && got[at] == mutated[at] {
			at++
		}
		t.Errorf("%s: accepted, but re-serializes differently (%d vs %d bytes, first difference at byte %d)",
			what, len(got), len(mutated), at)
	}
	return true
}

// TestRestoreMutationSweep is the corruption sweep that gets past the CRC.
// The other corruption tests flip a byte and leave the trailer stale, so
// every case dies at the CRC compare; here the trailer is recomputed after
// each single-bit flip, so the component decoders' own validation is what
// stands between the mutation and the live system. Offsets are sampled from
// every region of the file — the header, both cores' ROBs and counters, the
// generators, the hierarchy's tail (MSHRs, lanes, write-backs, retries,
// DBI), and the controller with its row-counter tables — on the PRA/GUPS
// configuration with DBI and mitigation armed, so all of them are
// populated. Each mutated payload must be either
//
//   - rejected with the system pristine: one long-lived system takes every
//     rejected payload in turn and must afterwards cold-run to the
//     monolithic Result, or
//   - accepted, and then Checkpoint() reproduces the mutated bytes exactly
//     (checkMutatedRestore) —
//
// and never a panic. A field that is derived on restore rather than trusted
// from the payload must therefore be *checked* against the payload (as the
// DBI order is), not silently recomputed.
func TestRestoreMutationSweep(t *testing.T) {
	t.Parallel()
	cfg := quickCheckpointCfg("GUPS")
	cfg.Scheme = memctrl.PRA
	cfg.DBI = true
	cfg.MitThreshold = hammerMitThreshold
	fresh := func() *System {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := fresh()
	if err := src.Warmup(); err != nil {
		t.Fatal(err)
	}
	data, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The regions, walking back from the trailer: each component's section
	// is as long as what the component writes on its own, and the header is
	// what is left. Every region is sampled at a stride coprime to its
	// record sizes (9-byte ROB slots, 18-byte queued ops, 24-byte DBI rows,
	// 8-byte words), so the samples walk through every byte position of a
	// record; the flipped bit rotates with the sample index.
	type region struct {
		name           string
		lo, hi, stride int
	}
	var regions []region
	end := len(data) - 4
	add := func(name string, n, stride int) {
		regions = append(regions, region{name, end - n, end, stride})
		end -= n
	}
	size := func(save func(*checkpoint.Writer)) int {
		var w checkpoint.Writer
		save(&w)
		return len(w.Bytes())
	}
	add("controller", size(src.ctrl.SaveState), 131)
	// A fresh hierarchy writes the same line arrays and an empty tail, so the
	// length difference, plus slack for the empty tail itself, covers the
	// populated tail (MSHRs, lanes, write-backs, retries, DBI).
	hier := size(src.hier.SaveState)
	tail := hier - size(fresh().hier.SaveState) + 128
	add("hierarchy tail", tail, 97)
	add("cache lines", hier-tail, (hier-tail)/16+1)
	for i := len(src.cores) - 1; i >= 0; i-- {
		add(fmt.Sprintf("generator %d", i), size(src.cores[i].Generator().(checkpoint.Saver).SaveState), 7)
	}
	for i := len(src.cores) - 1; i >= 0; i-- {
		add(fmt.Sprintf("core %d", i), size(src.cores[i].SaveState), 37)
	}
	if end <= 0 || tail <= 128 || tail >= hier {
		t.Fatalf("sections %+v leave a %d-byte header (hierarchy %d, tail %d)", regions, end, hier, tail)
	}
	add("header", end, 3)

	want, err := src.Measure()
	if err != nil {
		t.Fatal(err)
	}

	rejecter, probe := fresh(), fresh()
	rejected, accepted, flips := 0, 0, 0
	mutated := append([]byte(nil), data...)
	for _, rg := range regions {
		for off := rg.lo; off < rg.hi; off += rg.stride {
			bit := byte(1) << (uint(flips) % 8)
			flips++
			mutated[off] ^= bit
			mutated = recrc(mutated)
			what := fmt.Sprintf("%s+%d (byte %d) ^ %#02x", rg.name, off-rg.lo, off, bit)
			if checkMutatedRestore(t, probe, mutated, what) {
				accepted++
				probe = fresh()
			} else {
				// The probe stays in use (a rejected restore leaves it
				// pristine, which is what the rejecter proves); the rejecter
				// only ever sees payloads known to be rejected.
				rejected++
				if err := rejecter.Restore(mutated); err == nil {
					t.Fatalf("%s: rejected by one fresh system, accepted by another", what)
				}
			}
			mutated[off] ^= bit
		}
	}
	t.Logf("%d rejected, %d accepted", rejected, accepted)
	if rejected == 0 || accepted == 0 {
		t.Errorf("%d rejected, %d accepted: the sweep must exercise both outcomes", rejected, accepted)
	}
	got, err := rejecter.Run()
	if err != nil {
		t.Fatalf("cold run after %d rejected restores: %v", rejected, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cold run after %d rejected restores diverged from the monolithic run — a rejected restore leaked state", rejected)
	}
}
