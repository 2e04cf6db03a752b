package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pradram/internal/core"
	"pradram/internal/dram"
	"pradram/internal/memctrl"
)

// Load reads an encoded trace and materializes every record: the in-memory
// reference the round-trip and stream-identity tests compare the streaming
// decoder against.
func Load(data []byte) (*Trace, error) {
	f, err := OpenV2(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	s := f.Stream()
	t := &Trace{}
	var rec Record
	for s.Next(&rec) {
		t.Records = append(t.Records, rec)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func sampleTrace() *Trace {
	return &Trace{Records: []Record{
		{At: 0, Addr: 0x1000},
		{At: 4, Write: true, Addr: 0x2040, Mask: core.StoreBytes(0, 8)},
		{At: 4, Addr: 0x80_0000},
		{At: 1000, Write: true, Addr: 0x3000, Mask: core.FullByteMask},
	}}
}

// TestSaveLoadRoundTripProperty round-trips random traces — arbitrary gaps,
// addresses and masks, at a random chunk granularity so records land on both
// sides of chunk boundaries — through SaveV2Chunked and Load.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	f := func(deltas []uint16, addrs []uint32, writes []bool, perChunk uint8) bool {
		n := len(deltas)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(writes) < n {
			n = len(writes)
		}
		tr := &Trace{}
		at := int64(0)
		for i := 0; i < n; i++ {
			at += int64(deltas[i])
			rec := Record{At: at, Addr: uint64(addrs[i]) &^ 63, Write: writes[i]}
			if rec.Write {
				rec.Mask = core.ByteMask(addrs[i]) | 1
			}
			tr.Records = append(tr.Records, rec)
		}
		var buf bytes.Buffer
		if err := tr.SaveV2Chunked(&buf, 1+int(perChunk)); err != nil {
			return false
		}
		got, err := Load(buf.Bytes())
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSaveRejectsUnorderedRecords(t *testing.T) {
	tr := &Trace{Records: []Record{{At: 10, Addr: 0}, {At: 5, Addr: 64}}}
	if err := tr.SaveV2(&bytes.Buffer{}); err == nil {
		t.Error("unordered trace must fail to save")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not a trace")); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := Load(nil); err == nil {
		t.Error("empty input must fail")
	}
	// Truncated body after valid magic: the last chunk loses its tail.
	var buf bytes.Buffer
	tr := sampleTrace()
	if err := tr.SaveV2(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := OpenV2(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	last := f.Info().Chunks[len(f.Info().Chunks)-1]
	trunc := buf.Bytes()[:last.Offset+8+last.Bytes-3]
	if _, err := Load(trunc); err == nil {
		t.Error("truncated trace must fail")
	}
}

// TestRetiredFormatRejected: a file in the flat serialization pratrace wrote
// before the chunked one is outside input and may still be on someone's disk;
// OpenV2, the one way of opening a trace, must refuse it naming the cause and
// the remedy.
func TestRetiredFormatRejected(t *testing.T) {
	old := append([]byte("PRA1"), 0x01, 0x00, 0x00, 0x40) // v1: count 1, one read of line 1
	const want = "PRA1 traces are no longer supported; re-record with pratrace -record"
	if _, err := OpenV2(bytes.NewReader(old), int64(len(old))); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want one containing %q", err, want)
	}
}

type fakeBackend struct {
	reads, writes int
	accept        bool
}

func (f *fakeBackend) Read(addr uint64, done core.Done) bool {
	if f.accept {
		f.reads++
	}
	return f.accept
}
func (f *fakeBackend) Write(addr uint64, mask core.ByteMask) bool {
	if f.accept {
		f.writes++
	}
	return f.accept
}

func TestCaptureRecordsAcceptedOnly(t *testing.T) {
	inner := &fakeBackend{accept: false}
	now := int64(0)
	c := &Capture{Inner: inner, Now: func() int64 { return now }}
	if c.Read(0x40, core.Untagged(func(int64) {})) {
		t.Fatal("refusal must propagate")
	}
	if c.Trace.Len() != 0 {
		t.Error("refused requests must not be recorded")
	}
	inner.accept = true
	now = 7
	c.Read(0x40, core.Untagged(func(int64) {}))
	now = 9
	c.Write(0x80, core.StoreBytes(0, 8))
	if c.Trace.Len() != 2 {
		t.Fatalf("records = %d, want 2", c.Trace.Len())
	}
	if c.Trace.Records[0].At != 7 || c.Trace.Records[0].Write {
		t.Errorf("read record wrong: %+v", c.Trace.Records[0])
	}
	if c.Trace.Records[1].At != 9 || !c.Trace.Records[1].Write || c.Trace.Records[1].Mask == 0 {
		t.Errorf("write record wrong: %+v", c.Trace.Records[1])
	}
}

func TestReplayServesAllRequests(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 200; i++ {
		rec := Record{At: int64(i * 8), Addr: uint64(i) * 8192}
		if i%3 == 0 {
			rec.Write = true
			rec.Mask = core.StoreBytes(0, 8)
		}
		tr.Records = append(tr.Records, rec)
	}
	res, err := ReplayStream(tr.Stream(), memctrl.DefaultConfig(), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantWrites := int64(67) // ceil(200/3)
	if res.Reads+res.Writes != 200 || res.Writes != wantWrites {
		t.Errorf("reads/writes = %d/%d", res.Reads, res.Writes)
	}
	if res.Ctrl.ReadsServed != res.Reads {
		t.Errorf("served %d reads, enqueued %d", res.Ctrl.ReadsServed, res.Reads)
	}
	if res.Energy.Total() <= 0 || res.AvgPowerMW() <= 0 {
		t.Error("replay must accrue energy")
	}
	if res.AvgReadNs <= 0 {
		t.Error("read latency must be positive")
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.Records = append(tr.Records, Record{At: int64(i * 4), Addr: uint64(i*64) % (1 << 20)})
	}
	a, err := ReplayStream(tr.Stream(), memctrl.DefaultConfig(), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayStream(tr.Stream(), memctrl.DefaultConfig(), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Energy != b.Energy {
		t.Error("replay must be deterministic")
	}
}

// A PRA replay of a write-heavy trace with partial masks must use less
// power than a baseline replay of the same trace — the fast what-if path
// working end to end.
func TestReplaySchemeWhatIf(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 500; i++ {
		tr.Records = append(tr.Records, Record{
			At:    int64(i * 6),
			Write: true,
			Addr:  (uint64(i) * 524288) % (2 << 30),
			Mask:  core.StoreBytes((i%8)*8, 8),
		})
	}
	baseCfg := memctrl.DefaultConfig()
	base, err := ReplayStream(tr.Stream(), baseCfg, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	praCfg := memctrl.DefaultConfig()
	praCfg.Scheme = memctrl.PRA
	pra, err := ReplayStream(tr.Stream(), praCfg, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if pra.AvgPowerMW() >= base.AvgPowerMW() {
		t.Errorf("PRA replay power %.1f must be below baseline %.1f", pra.AvgPowerMW(), base.AvgPowerMW())
	}
	if pra.Dev.AvgGranularity() >= 8 {
		t.Error("PRA replay must show partial activations")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	res, err := ReplayStream((&Trace{}).Stream(), memctrl.DefaultConfig(), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 0 || res.Writes != 0 {
		t.Error("empty trace must serve nothing")
	}
}

// TestReplayResultUsesConfiguredClock: the ns and mW figures of a replay are
// in the clocks of the configuration it ran under, not DDR3-1600's. Its
// runtime is Cycles CPU cycles of p/q memory cycles each: the exact tCK,
// 2000/rate ns, times q/p.
func TestReplayResultUsesConfiguredClock(t *testing.T) {
	tr := synthTrace(2000, 5)
	for _, b := range []struct {
		name string
		p, q int64
		tck  float64 // datasheet tCK, ns
	}{{"DDR3-1600", 4, 1, 1.25}, {"DDR3-1066", 6, 1, 1.875}, {"DDR3-1866", 24, 7, 1.071}} {
		name := b.name
		g, ok := dram.SpeedGradeByName(name)
		if !ok {
			t.Fatalf("no speed grade %s", name)
		}
		cfg := memctrl.DefaultConfig()
		cfg.Timing = g.Timing
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ctrl.CPUAt(b.q) != b.p || ctrl.CPUAt(1) != (b.p+b.q-1)/b.q {
			t.Fatalf("%s: the crossing is not %d/%d", name, b.p, b.q)
		}
		res, err := ReplayStream(tr.Stream(), cfg, ReplayOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wantNs := float64(res.Ctrl.ReadLatencySum) / float64(res.Ctrl.ReadsServed) * b.tck
		if res.Ctrl.ReadsServed == 0 || res.AvgReadNs != wantNs {
			t.Errorf("%s: AvgReadNs = %v, want %v (%d reads)", name, res.AvgReadNs, wantNs, res.Ctrl.ReadsServed)
		}
		tCK := 2000 * float64(g.Timing.Rate.Den) / float64(g.Timing.Rate.Num)
		wantMW := res.Energy.Total() / (float64(res.Cycles) * tCK * float64(b.q) / float64(b.p))
		if got := res.AvgPowerMW(); math.Abs(got-wantMW) > 1e-9*wantMW {
			t.Errorf("%s: AvgPowerMW = %v, want %v", name, got, wantMW)
		}
	}
}
