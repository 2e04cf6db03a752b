package trace

import (
	"bytes"
	"reflect"
	"testing"

	"pradram/internal/core"
	"pradram/internal/memctrl"
)

// decodeRequests turns fuzz bytes into a bounded request stream: five
// bytes per request (kind/gap, three address bytes, mask shape). Requests
// are line-aligned and the count is capped so one fuzz iteration stays
// cheap even with a slow controller drain behind it.
func decodeRequests(data []byte) []Record {
	const maxRecords = 64
	var recs []Record
	for len(data) >= 5 && len(recs) < maxRecords {
		kind, a0, a1, a2, m := data[0], data[1], data[2], data[3], data[4]
		data = data[5:]
		addr := (uint64(a0) | uint64(a1)<<8 | uint64(a2)<<16) << 6 // line-aligned, 1 GiB space
		rec := Record{Write: kind&1 != 0, Addr: addr}
		if rec.Write {
			// Valid FGD store masks only: offset and size derived from
			// the mask byte, clamped by StoreBytes itself.
			rec.Mask = core.StoreBytes(int(m%8)*8, 8*(1+int(m>>4)%8))
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzCaptureReplay round-trips arbitrary request streams through the
// full capture pipeline: live controller traffic recorded by Capture,
// serialized with SaveV2, parsed back with Load, and re-executed with
// Replay. The serialized form must reproduce the records exactly and the
// replay must accept every record and drain without error.
func FuzzCaptureReplay(f *testing.F) {
	// Seed corpus: empty stream; single read; single write; a
	// read-after-write on one line (the forwarding path); a same-line
	// write pair (the merge path); and an interleaved burst across banks —
	// the request shapes the parallel experiment runner's workloads
	// produce in bulk.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 0x13})
	f.Add([]byte{1, 2, 0, 0, 0x71, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 0x01, 1, 3, 0, 0, 0x72})
	f.Add([]byte{
		0, 0, 0, 0, 0,
		1, 0, 1, 0, 0x24,
		0, 0, 2, 0, 0,
		1, 0, 3, 0, 0x55,
		0, 0, 0, 1, 0,
		1, 0, 0, 2, 0x66,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeRequests(data)
		cfg := memctrl.DefaultConfig()
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Capture: feed the decoded stream through a live controller,
		// retrying rejected requests on later cycles as the cache
		// hierarchy would.
		var cycle int64
		cap := &Capture{Inner: ctrl, Now: func() int64 { return cycle }}
		outstanding := 0
		i := 0
		const maxCycles = 10_000_000
		for i < len(recs) {
			if cycle > maxCycles {
				t.Fatalf("capture stalled at cycle %d with %d records left", cycle, len(recs)-i)
			}
			r := recs[i]
			if r.Write {
				if cap.Write(r.Addr, r.Mask) {
					i++
				}
			} else {
				if cap.Read(r.Addr, core.Untagged(func(int64) { outstanding-- })) {
					outstanding++
					i++
				}
			}
			ctrl.Tick(cycle)
			cycle++
		}
		for ; (outstanding > 0 || ctrl.Pending()) && cycle <= maxCycles; cycle++ {
			ctrl.Tick(cycle)
		}
		if outstanding > 0 || ctrl.Pending() {
			t.Fatal("capture run failed to drain")
		}
		if got := cap.Trace.Len(); got != len(recs) {
			t.Fatalf("capture recorded %d of %d accepted requests", got, len(recs))
		}

		// SaveV2 -> Load must reproduce the records exactly.
		var buf bytes.Buffer
		if err := cap.Trace.SaveV2(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		loaded, err := Load(buf.Bytes())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if !reflect.DeepEqual(loaded.Records, cap.Trace.Records) &&
			!(len(loaded.Records) == 0 && len(cap.Trace.Records) == 0) {
			t.Fatalf("round trip changed records:\nsaved:  %+v\nloaded: %+v", cap.Trace.Records, loaded.Records)
		}

		// Replay must accept the whole stream and drain.
		res, err := ReplayStream(loaded.Stream(), cfg, ReplayOpts{})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		var wantReads, wantWrites int64
		for _, r := range recs {
			if r.Write {
				wantWrites++
			} else {
				wantReads++
			}
		}
		if res.Reads != wantReads || res.Writes != wantWrites {
			t.Errorf("replay accepted %d reads / %d writes, want %d / %d",
				res.Reads, res.Writes, wantReads, wantWrites)
		}
	})
}

// TestCaptureReplaySeedCorpus runs the seed inputs as a plain test so the
// round trip is exercised on every `go test` run, not only under -fuzz.
func TestCaptureReplaySeedCorpus(t *testing.T) {
	t.Parallel()
	seeds := [][]byte{
		{},
		{0, 1, 0, 0, 0},
		{1, 1, 0, 0, 0x13},
		{1, 2, 0, 0, 0x71, 0, 2, 0, 0, 0},
		{1, 3, 0, 0, 0x01, 1, 3, 0, 0, 0x72},
	}
	for _, seed := range seeds {
		recs := decodeRequests(seed)
		tr := &Trace{}
		at := int64(0)
		for _, r := range recs {
			r.At = at
			at += 3
			tr.Records = append(tr.Records, r)
		}
		var buf bytes.Buffer
		if err := tr.SaveV2(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Len() != tr.Len() {
			t.Errorf("round trip: %d records, want %d", loaded.Len(), tr.Len())
		}
		if _, err := ReplayStream(loaded.Stream(), memctrl.DefaultConfig(), ReplayOpts{}); err != nil {
			t.Errorf("replay: %v", err)
		}
	}
}
