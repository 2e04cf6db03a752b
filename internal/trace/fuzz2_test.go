package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// v2Corpus returns seed inputs for the chunked-reader fuzzer: valid
// encodings at several chunk sizes plus an empty trace.
func v2Corpus() [][]byte {
	var out [][]byte
	for _, chunk := range []int{1, 3, 512} {
		var buf bytes.Buffer
		if err := sampleTrace().SaveV2Chunked(&buf, chunk); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	var empty bytes.Buffer
	if err := (&Trace{}).SaveV2(&empty); err != nil {
		panic(err)
	}
	out = append(out, empty.Bytes())
	return out
}

// FuzzTraceV2Chunks hammers the chunked reader with arbitrary bytes:
// truncated frames, corrupt varints, CRC mismatches, lying length
// prefixes, mangled footers. The contract under fuzz is (a) never panic,
// (b) never hand back out-of-order records — corruption surfaces as an
// error, not as silently wrong data.
func FuzzTraceV2Chunks(f *testing.F) {
	for _, seed := range v2Corpus() {
		f.Add(seed)
		if len(seed) > 8 {
			f.Add(seed[:len(seed)-8]) // trailer torn off
			f.Add(seed[:len(seed)/2]) // truncated mid-chunk
			mut := bytes.Clone(seed)
			mut[len(mut)/3] ^= 0x10 // CRC mismatch
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(data)
		if err != nil {
			return
		}
		prev := int64(0)
		for i, r := range tr.Records {
			if r.At < prev {
				t.Fatalf("record %d time-travels: %d after %d", i, r.At, prev)
			}
			prev = r.At
		}
	})
}

// TestV2SingleByteCorruption flips every byte of a valid v2 encoding, one
// at a time, and requires each corrupted file to either fail decoding or
// still yield exactly the original records (bytes the decoder never reads
// cannot matter) — a chunk CRC catches every single-byte payload flip, so
// corruption can never silently alter a replay.
func TestV2SingleByteCorruption(t *testing.T) {
	tr := synthTrace(600, 21)
	var buf bytes.Buffer
	if err := tr.SaveV2Chunked(&buf, 100); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for pos := 0; pos < len(orig); pos++ {
		mut := bytes.Clone(orig)
		mut[pos] ^= 0xA5
		got, err := Load(mut)
		if err != nil {
			continue
		}
		recs := got.Records
		if len(recs) != len(tr.Records) {
			t.Fatalf("flip at %d: silently decoded %d records, want error or %d",
				pos, len(recs), len(tr.Records))
		}
		for i := range recs {
			if recs[i] != tr.Records[i] {
				t.Fatalf("flip at %d: record %d silently changed: %+v != %+v",
					pos, i, recs[i], tr.Records[i])
			}
		}
	}
}

// TestV2ZeroedChunkLength zeroes each chunk's frame length in turn. The
// footer still passes OpenV2's checks, and a zero length is what the end of
// the chunks looks like to a reader that walks frames without the index, so
// the stream must end with an error naming that chunk, not cleanly after
// the chunks before it.
func TestV2ZeroedChunkLength(t *testing.T) {
	tr := synthTrace(1700, 5)
	var buf bytes.Buffer
	if err := tr.SaveV2Chunked(&buf, 500); err != nil {
		t.Fatal(err)
	}
	f, err := OpenV2(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range f.Info().Chunks {
		mut := bytes.Clone(buf.Bytes())
		clear(mut[c.Offset : c.Offset+4])
		_, err := Load(mut)
		if want := fmt.Sprintf("chunk %d:", k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("chunk %d's length zeroed: error %v, want one containing %q", k, err, want)
		}
	}
}

// TestFuzzV2SeedCorpus runs the fuzz property over the seeds so `go test`
// exercises them even without -fuzz.
func TestFuzzV2SeedCorpus(t *testing.T) {
	for _, seed := range v2Corpus() {
		if _, err := Load(seed); err != nil {
			t.Fatalf("valid seed failed to decode: %v", err)
		}
		if _, err := Load(seed[:len(seed)-8]); err == nil {
			t.Fatal("a trace with the trailer torn off decoded")
		}
	}
}
