package trace

import (
	"bytes"
	"testing"

	"pradram/internal/memctrl"
)

// benchBuf is a synthetic trace, encoded once for the decode benchmark.
var benchBuf = func() []byte {
	var buf bytes.Buffer
	if err := synthTrace(1<<16, 1234).SaveV2(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// BenchmarkIngestDecodeV2 measures per-record decode cost: one op is one
// record, reopening the buffer as it drains so b.N is unbounded. It is the
// Mreq/s figure tools/benchgate -ingest gates (floor: 500 ns/op, i.e. 2M
// records/sec).
func BenchmarkIngestDecodeV2(b *testing.B) {
	b.SetBytes(int64(len(benchBuf)) / (1 << 16))
	b.ReportAllocs()
	var s Stream
	var rec Record
	for i := 0; i < b.N; i++ {
		if s == nil {
			var err error
			s, err = Open(bytes.NewReader(benchBuf))
			if err != nil {
				b.Fatal(err)
			}
		}
		if !s.Next(&rec) {
			if err := s.Err(); err != nil {
				b.Fatal(err)
			}
			s = nil
			i--
		}
	}
}

// synthStream generates records on the fly (no backing buffer), isolating
// the replay driver and controller path from decode cost: one op is one
// record replayed end to end. Arrivals are paced at 8 CPU cycles across a
// spread of rows so the controller stays busy without saturating a queue.
type synthStream struct {
	n     int
	i     int
	state uint64
}

func (s *synthStream) Next(rec *Record) bool {
	if s.i >= s.n {
		return false
	}
	s.state = s.state*6364136223846793005 + 1442695040888963407
	rec.At = int64(s.i) * 8
	rec.Addr = (s.state >> 20) << 6 & (1<<30 - 1)
	rec.Write = false
	rec.Mask = 0
	s.i++
	return true
}

func (s *synthStream) Err() error { return nil }

// BenchmarkIngestReplayStream is the allocation-ceiling benchmark: the
// controller is constructed once per run (amortized across b.N records),
// so allocs/op at the benchgate's record count rounds to the steady-state
// per-record figure, which must be zero.
func BenchmarkIngestReplayStream(b *testing.B) {
	b.ReportAllocs()
	if _, err := ReplayStream(&synthStream{n: b.N, state: 99}, memctrl.DefaultConfig(), ReplayOpts{}); err != nil {
		b.Fatal(err)
	}
}

// TestReplayStreamAllocs enforces the zero-allocation steady state of the
// streaming replay path via testing.AllocsPerOp — the in-repo twin of the
// benchgate -ingest ceiling.
func TestReplayStreamAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a long run to amortize setup")
	}
	res := testing.Benchmark(BenchmarkIngestReplayStream)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("streaming replay allocates %d/record in steady state, want 0", a)
	}
}
