package trace

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"pradram/internal/core"
	"pradram/internal/memctrl"
)

var update = flag.Bool("update", false, "rewrite testdata/v2_encoding.golden")

// synthTrace builds a deterministic pseudo-random trace of n records:
// bursty arrivals across a spread of rows and banks, ~30% writes.
func synthTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Records: make([]Record, 0, n)}
	at := int64(0)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			at += int64(rng.Intn(400)) // gap between bursts
		}
		rec := Record{At: at, Addr: uint64(rng.Intn(1<<24)) << 6}
		if rng.Intn(10) < 3 {
			rec.Write = true
			rec.Mask = core.ByteMask(rng.Uint64()) | 1
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestSaveV2LoadRoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), synthTrace(10_000, 7), {}} {
		var buf bytes.Buffer
		if err := tr.SaveV2Chunked(&buf, 512); err != nil {
			t.Fatal(err)
		}
		got, err := Load(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, got.Records, tr.Records)
	}
}

func TestOpenV2Info(t *testing.T) {
	tr := synthTrace(2500, 3)
	var buf bytes.Buffer
	if err := tr.SaveV2Chunked(&buf, 1000); err != nil {
		t.Fatal(err)
	}
	f, err := OpenV2(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	info := f.Info()
	if info.Version != 2 {
		t.Errorf("version = %d, want 2", info.Version)
	}
	if info.Records != 2500 {
		t.Errorf("records = %d, want 2500", info.Records)
	}
	if len(info.Chunks) != 3 { // 1000 + 1000 + 500
		t.Fatalf("chunks = %d, want 3", len(info.Chunks))
	}
	wantWrites := int64(0)
	for _, r := range tr.Records {
		if r.Write {
			wantWrites++
		}
	}
	if info.Writes != wantWrites {
		t.Errorf("writes = %d, want %d", info.Writes, wantWrites)
	}
	if info.FirstAt != tr.Records[0].At || info.LastAt != tr.Records[len(tr.Records)-1].At {
		t.Errorf("span [%d,%d], want [%d,%d]", info.FirstAt, info.LastAt,
			tr.Records[0].At, tr.Records[len(tr.Records)-1].At)
	}
	// Per-chunk stats must agree with the records they cover.
	idx := 0
	for ci, c := range info.Chunks {
		if c.FirstAt != tr.Records[idx].At {
			t.Errorf("chunk %d firstAt = %d, want %d", ci, c.FirstAt, tr.Records[idx].At)
		}
		last := idx + int(c.Count) - 1
		if c.LastAt != tr.Records[last].At {
			t.Errorf("chunk %d lastAt = %d, want %d", ci, c.LastAt, tr.Records[last].At)
		}
		idx += int(c.Count)
	}
}

// TestSaveV2RejectsUnorderedWithoutWriting steps back in time at the
// second record: the whole trace is refused before its first byte.
func TestSaveV2RejectsUnorderedWithoutWriting(t *testing.T) {
	wantOrderingRefusal(t, &Trace{Records: []Record{{At: 10, Addr: 64}, {At: 5, Addr: 128}}}, 0)
}

// TestV2WriterRejectsOutOfOrderAppend appends one record earlier than its
// predecessor, both inside the first chunk and after more than one chunk
// of ordered records: SaveV2Chunked refuses the trace before its first
// byte, not after the chunks ahead of the fault.
func TestV2WriterRejectsOutOfOrderAppend(t *testing.T) {
	wantOrderingRefusal(t, &Trace{Records: []Record{{At: 100, Addr: 64}, {At: 99, Addr: 64}}}, 16)
	late := synthTrace(40, 11)
	late.Records = append(late.Records, Record{At: late.Records[39].At - 1, Addr: 64})
	wantOrderingRefusal(t, late, 16)
}

// wantOrderingRefusal saves tr in perChunk-record chunks and fails unless
// the save reports the ordering error and writes nothing.
func wantOrderingRefusal(t *testing.T, tr *Trace, perChunk int) {
	t.Helper()
	var buf bytes.Buffer
	err := tr.SaveV2Chunked(&buf, perChunk)
	if err == nil || !strings.Contains(err.Error(), "not time-ordered") {
		t.Fatalf("err = %v, want ordering error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %d bytes before failing; torn output", buf.Len())
	}
}

// TestV2EncodingGolden pins the bytes the writer emits: the sha256 of
// SaveV2Chunked's output for synthTrace lengths crossed with chunk sizes
// (0 selects DefaultChunkRecords), so any change to the framing, the
// delta coding or the footer shows. Regenerate testdata/v2_encoding.golden
// with -update only for an intended format change.
func TestV2EncodingGolden(t *testing.T) {
	var got strings.Builder
	for _, n := range []int{0, 1, 7, 4000, 9001} {
		tr := synthTrace(n, 1)
		for _, perChunk := range []int{0, 1, 3, 512, 4096} {
			var buf bytes.Buffer
			if err := tr.SaveV2Chunked(&buf, perChunk); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "records=%d perChunk=%d %x\n", n, perChunk, sha256.Sum256(buf.Bytes()))
		}
	}
	const golden = "testdata/v2_encoding.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("v2 encoding changed (rerun with -update if intended):\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestReplayStreamIdentity is the ingestion path's acceptance check: a
// streaming replay off the encoded bytes must be bit-identical (the full
// ReplayResult, which embeds controller stats — reject counters included —
// device stats, and the energy breakdown) to the materialized replay of the
// records Load returns, and the skip
// driver to the noskip driver, on the default two-channel and a four-channel
// controller. The second trace arrives all at once, so its head record is
// refused on nearly every cycle: the regime where the skip driver books
// refusals in bulk instead of retrying.
func TestReplayStreamIdentity(t *testing.T) {
	saturated := synthTrace(8000, 7)
	for i := range saturated.Records {
		saturated.Records[i].At = 0
	}
	wide := memctrl.DefaultConfig()
	wide.Channels = 4
	for _, tr := range []*Trace{synthTrace(4000, 42), saturated} {
		var v2 bytes.Buffer
		if err := tr.SaveV2Chunked(&v2, 512); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(v2.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []memctrl.Config{memctrl.DefaultConfig(), wide} {
			var skip ReplayResult
			for _, opt := range []ReplayOpts{{}, {NoSkip: true}} {
				want, err := ReplayStream(loaded.Stream(), cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !opt.NoSkip {
					skip = want
				} else if want != skip {
					t.Errorf("%d channels: skip and noskip replays differ:\n  skip %+v\nnoskip %+v", cfg.Channels, skip, want)
				}
				if rejects := want.Ctrl.ReadRejects + want.Ctrl.WriteRejects; tr == saturated && 10*rejects < 9*want.Cycles {
					t.Errorf("%d channels: saturated trace refused on %d of %d cycles, want at least 90%%", cfg.Channels, rejects, want.Cycles)
				}
				f, err := OpenV2(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := ReplayStream(f.Stream(), cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%d channels, opt %+v: streaming v2 replay diverged:\n got %+v\nwant %+v", cfg.Channels, opt, got, want)
				}
			}
		}
	}
}

// TestReplayStreamDecodeError verifies a mid-stream decode failure
// surfaces as an error after the issued prefix drains, not a panic or a
// silent truncation.
func TestReplayStreamDecodeError(t *testing.T) {
	tr := synthTrace(2000, 9)
	var buf bytes.Buffer
	if err := tr.SaveV2Chunked(&buf, 256); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40 // corrupt a mid-file chunk
	f, err := OpenV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayStream(f.Stream(), memctrl.DefaultConfig(), ReplayOpts{}); err == nil {
		t.Fatal("replay of corrupt stream succeeded")
	}
}
