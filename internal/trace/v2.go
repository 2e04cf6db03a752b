package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
)

// Format v2 ("PRA2", DESIGN.md §4j) is the trace container: varint-delta
// records framed into CRC-protected chunks with a footer index, so a reader
// can print header stats without decoding, find each chunk through an
// io.ReaderAt (a file, an mmap, a byte slice), and detect truncation or
// corruption at chunk granularity instead of silently replaying garbage.
//
// Layout:
//
//	"PRA2"
//	chunk*:  u32 payloadLen | u32 crc32(payload) | payload
//	end:     u32 0
//	footer:  u32 footerLen  | u32 crc32(footer)  | footer payload
//	trailer: u32 footerLen  | "PRAi"
//
// A chunk payload is: uvarint count, then count records (varint time delta,
// flag, varint address, and for writes the byte mask), with the delta
// accumulator starting at zero —
// the first record's delta is its absolute cycle, so every chunk decodes
// independently of its predecessors. The footer payload (checkpoint
// codec) carries the totals and one index entry per chunk: frame offset,
// payload length, record count, first cycle, cycle span, and write count.
// The trailing 8 bytes locate the footer from the end of the file, which
// is how OpenV2 bootstraps without scanning.
var magicV2 = [4]byte{'P', 'R', 'A', '2'}

// tailMagic terminates a v2 file; OpenV2 reads it (and the footer length
// beside it) from the end to locate the index.
var tailMagic = [4]byte{'P', 'R', 'A', 'i'}

const (
	// DefaultChunkRecords is the chunk granularity SaveV2 uses: large
	// enough that framing overhead vanishes (~10 bytes against ~5
	// bytes/record * 4096), small enough that a seek lands within a few
	// tens of KB of any target record.
	DefaultChunkRecords = 4096

	// maxChunkPayload bounds a chunk frame against corrupt lengths; real
	// chunks are a few tens of KB.
	maxChunkPayload = 1 << 26
)

// ChunkInfo is one footer index entry.
type ChunkInfo struct {
	Offset  int64 // file offset of the chunk's frame header
	Bytes   int64 // payload length
	Count   int64 // records in the chunk
	FirstAt int64 // cycle of the first record
	LastAt  int64 // cycle of the last record
	Writes  int64 // write records in the chunk
}

// Info summarizes a trace file without its records: format version,
// totals, cycle span, and the per-chunk index.
type Info struct {
	Version int   // format version: 2, the only one
	Records int64 // total records
	Writes  int64 // total write records
	FirstAt int64 // cycle of the first record (0 when empty)
	LastAt  int64 // cycle of the last record (0 when empty)
	Chunks  []ChunkInfo
}

// state states the footer index once: the totals, then each chunk as
// varints relative to its predecessor (the first chunk's offset relative to
// the 4-byte magic).
func (info *Info) state(k *checkpoint.Codec) {
	checkpoint.Word(k, &info.Records)
	k.I64(&info.FirstAt)
	k.I64(&info.LastAt)
	checkpoint.Word(k, &info.Writes)
	prev := ChunkInfo{Offset: 4}
	info.Chunks = checkpoint.Slice(k, info.Chunks, func(c *ChunkInfo) {
		off, first, span := uint64(c.Offset-prev.Offset), c.FirstAt-prev.FirstAt, uint64(c.LastAt-c.FirstAt)
		k.Uvarint(&off)
		uvarint(k, &c.Bytes)
		uvarint(k, &c.Count)
		k.Varint(&first)
		k.Uvarint(&span)
		uvarint(k, &c.Writes)
		c.Offset, c.FirstAt = prev.Offset+int64(off), prev.FirstAt+first
		c.LastAt = c.FirstAt + int64(span)
		prev = *c
	})
}

// uvarint codes a non-negative count as an unsigned varint.
func uvarint(k *checkpoint.Codec, p *int64) { v := uint64(*p); k.Uvarint(&v); *p = int64(v) }

// SaveV2 writes the trace in format v2 with the default chunk size.
func (t *Trace) SaveV2(w io.Writer) error {
	return t.SaveV2Chunked(w, DefaultChunkRecords)
}

// SaveV2Chunked is SaveV2 with an explicit records-per-chunk granularity
// (<= 0 selects DefaultChunkRecords), and the one v2 writer. It checks the
// ordering, encodes the whole file in memory (about half the size of the
// records it holds) and writes it with one Write, so an unordered trace
// writes nothing.
func (t *Trace) SaveV2Chunked(w io.Writer, perChunk int) error {
	if err := t.checkOrdered(); err != nil {
		return err
	}
	if perChunk <= 0 {
		perChunk = DefaultChunkRecords
	}
	buf := append([]byte(nil), magicV2[:]...)
	info := Info{Records: int64(len(t.Records))}
	if n := len(t.Records); n > 0 {
		info.FirstAt, info.LastAt = t.Records[0].At, t.Records[n-1].At
	}
	var payload []byte
	for rest := t.Records; len(rest) > 0; {
		chunk := rest[:min(perChunk, len(rest))]
		rest = rest[len(chunk):]
		c := ChunkInfo{Offset: int64(len(buf)), Count: int64(len(chunk)),
			FirstAt: chunk[0].At, LastAt: chunk[len(chunk)-1].At}
		payload = binary.AppendUvarint(payload[:0], uint64(len(chunk)))
		prev := int64(0) // the first delta is the absolute cycle
		for _, r := range chunk {
			flag := uint64(0)
			if r.Write {
				flag = 1
			}
			payload = binary.AppendUvarint(payload, uint64(r.At-prev))
			payload = binary.AppendUvarint(payload, flag)
			payload = binary.AppendUvarint(payload, r.Addr)
			if r.Write {
				payload = binary.AppendUvarint(payload, uint64(r.Mask))
				c.Writes++
			}
			prev = r.At
		}
		c.Bytes = int64(len(payload))
		buf = appendFrame(buf, payload)
		info.Chunks = append(info.Chunks, c)
		info.Writes += c.Writes
	}
	var footer checkpoint.Writer
	info.state(checkpoint.Saving(&footer))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // end-of-chunks sentinel
	buf = appendFrame(buf, footer.Bytes())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(footer.Bytes())))
	_, err := w.Write(append(buf, tailMagic[:]...))
	return err
}

// appendFrame appends p framed as u32 len(p) | u32 crc32(p) | p.
func appendFrame(buf, p []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p))
	return append(buf, p...)
}

// V2File is a v2 trace opened through an io.ReaderAt: the footer index is
// decoded up front (Info), and Stream reads the records chunk by chunk at
// the offsets the index gives, verifying each chunk as it is entered.
type V2File struct {
	ra   io.ReaderAt
	info Info
}

// OpenV2 opens a v2 trace of the given total size via ra, validating the
// head magic, trailer, and footer index (its CRC and internal
// consistency). Chunk payloads are not touched until streamed.
func OpenV2(ra io.ReaderAt, size int64) (*V2File, error) {
	var head [4]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if err := checkMagic(head); err != nil {
		return nil, err
	}
	var trailer [8]byte
	if size < 4+12+8 {
		return nil, fmt.Errorf("trace: file too short (%d bytes) for a v2 trace", size)
	}
	if _, err := ra.ReadAt(trailer[:], size-8); err != nil {
		return nil, fmt.Errorf("trace: reading trailer: %w", err)
	}
	if [4]byte(trailer[4:8]) != tailMagic {
		return nil, fmt.Errorf("trace: bad trailer magic %q", trailer[4:8])
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[0:4]))
	frameOff := size - 8 - footerLen - 12
	if footerLen > maxChunkPayload || frameOff < 4 {
		return nil, fmt.Errorf("trace: implausible footer length %d", footerLen)
	}
	frame := make([]byte, 12+footerLen)
	if _, err := ra.ReadAt(frame, frameOff); err != nil {
		return nil, fmt.Errorf("trace: reading footer: %w", err)
	}
	if s := binary.LittleEndian.Uint32(frame[0:4]); s != 0 {
		return nil, fmt.Errorf("trace: missing end-of-chunks sentinel before footer")
	}
	if l := int64(binary.LittleEndian.Uint32(frame[4:8])); l != footerLen {
		return nil, fmt.Errorf("trace: footer length mismatch (%d vs trailer %d)", l, footerLen)
	}
	footer := frame[12:]
	if crc := crc32.ChecksumIEEE(footer); crc != binary.LittleEndian.Uint32(frame[8:12]) {
		return nil, fmt.Errorf("trace: footer CRC mismatch")
	}
	r := checkpoint.NewReader(footer)
	info := Info{Version: 2}
	info.state(checkpoint.Restoring(r))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("trace: footer: %w", err)
	}
	var sum, sumW int64
	for i, c := range info.Chunks {
		if c.Bytes <= 0 || c.Bytes > maxChunkPayload || c.Count <= 0 ||
			c.Offset+8+c.Bytes > frameOff || c.Writes > c.Count {
			return nil, fmt.Errorf("trace: corrupt index entry %d: %+v", i, c)
		}
		sum += c.Count
		sumW += c.Writes
	}
	if sum != info.Records || sumW != info.Writes {
		return nil, fmt.Errorf("trace: index totals (%d records, %d writes) disagree with chunks (%d, %d)",
			info.Records, info.Writes, sum, sumW)
	}
	return &V2File{ra: ra, info: info}, nil
}

// Info returns the decoded footer index.
func (f *V2File) Info() *Info { return &f.info }

// Stream returns a Stream over every record, decoding the chunks the index
// lists lazily and in order. It ends after the last indexed chunk; a frame
// that disagrees with its index entry ends it with an error naming the
// chunk instead.
func (f *V2File) Stream() Stream { return &v2Stream{ra: f.ra, chunks: f.info.Chunks} }

// v2Stream decodes the indexed chunk frames of a v2 file one at a time,
// verifying each frame against its index entry and its CRC on entry and
// reusing one payload buffer for the whole stream, so steady-state decode
// allocates nothing per record.
type v2Stream struct {
	ra      io.ReaderAt
	chunks  []ChunkInfo // the footer index: where each frame is and what it holds
	next    int         // index of the next chunk to load
	payload []byte      // reused frame buffer
	pos     int         // decode cursor within payload
	n       int64       // records left in the current chunk
	at      int64       // delta accumulator, reset per chunk
	prevAt  int64       // last record cycle seen, for cross-chunk order checks
	err     error
}

func (s *v2Stream) Err() error { return s.err }

// fail ends the stream with an error naming chunk k.
func (s *v2Stream) fail(k int, format string, args ...any) bool {
	s.err = fmt.Errorf("trace: chunk %d: "+format, append([]any{k}, args...)...)
	return false
}

// readChunk loads and verifies the next indexed chunk frame: its length and
// record count must be the ones the index holds (a zeroed length would
// otherwise read as the end of the chunks), and its payload must match its
// CRC. It returns false on error.
func (s *v2Stream) readChunk() bool {
	k := s.next
	c := s.chunks[k]
	s.next++
	var hdr [8]byte
	if _, err := s.ra.ReadAt(hdr[:], c.Offset); err != nil {
		return s.fail(k, "header: %v", err)
	}
	if size := int64(binary.LittleEndian.Uint32(hdr[0:4])); size != c.Bytes {
		return s.fail(k, "frame length %d, index says %d", size, c.Bytes)
	}
	if cap(s.payload) < int(c.Bytes) {
		s.payload = make([]byte, c.Bytes)
	}
	s.payload = s.payload[:c.Bytes]
	if _, err := s.ra.ReadAt(s.payload, c.Offset+8); err != nil {
		return s.fail(k, "payload: %v", err)
	}
	if crc := crc32.ChecksumIEEE(s.payload); crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return s.fail(k, "CRC mismatch")
	}
	count, n := binary.Uvarint(s.payload)
	if n <= 0 || count != uint64(c.Count) {
		return s.fail(k, "frame holds %d records, index says %d", count, c.Count)
	}
	s.pos = n
	s.n = c.Count
	s.at = 0 // chunk deltas are self-contained
	return true
}

// uvarint decodes the next varint of the current chunk payload.
func (s *v2Stream) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(s.payload[s.pos:])
	if n <= 0 {
		return 0, s.fail(s.next-1, "truncated record")
	}
	s.pos += n
	return v, true
}

func (s *v2Stream) Next(rec *Record) bool {
	if s.err != nil {
		return false
	}
	for s.n == 0 {
		if s.pos != len(s.payload) {
			return s.fail(s.next-1, "%d trailing bytes", len(s.payload)-s.pos)
		}
		if s.next == len(s.chunks) || !s.readChunk() {
			return false
		}
	}
	delta, ok := s.uvarint()
	if !ok {
		return false
	}
	if delta > maxTimeDelta {
		return s.fail(s.next-1, "implausible time delta %d", delta)
	}
	flag, ok := s.uvarint()
	if !ok {
		return false
	}
	addr, ok := s.uvarint()
	if !ok {
		return false
	}
	s.at += int64(delta)
	if s.at < s.prevAt {
		return s.fail(s.next-1, "records not time-ordered at cycle %d", s.at)
	}
	s.prevAt = s.at
	rec.At = s.at
	rec.Write = flag&1 != 0
	rec.Addr = addr
	rec.Mask = 0
	if rec.Write {
		mask, ok := s.uvarint()
		if !ok {
			return false
		}
		rec.Mask = core.ByteMask(mask)
	}
	s.n--
	return true
}
