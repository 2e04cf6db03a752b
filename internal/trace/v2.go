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
// records framed into CRC-protected chunks with a footer index, so a reader can print header stats without decoding,
// seek to any chunk through an io.ReaderAt (a file, an mmap, a byte
// slice), and detect truncation or corruption at chunk granularity
// instead of silently replaying garbage.
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

// V2Writer encodes a v2 trace incrementally: records append one at a
// time (in non-decreasing At order), chunks flush as they fill, and Close
// writes the end sentinel, footer index, and trailer. Nothing but the
// current chunk is buffered, so writing is O(chunk) in memory regardless
// of trace length.
type V2Writer struct {
	w        io.Writer
	perChunk int

	payload []byte // current chunk, reused between flushes
	count   int64
	writes  int64
	first   int64 // At of the chunk's first record
	prev    int64 // At of the chunk's last record

	total       int64
	totalWrites int64
	firstAt     int64
	lastAt      int64
	any         bool
	off         int64
	chunks      []ChunkInfo
	err         error
	closed      bool
}

// NewV2Writer starts a v2 encoding onto w with the given records per
// chunk (<= 0 selects DefaultChunkRecords). The magic is written
// immediately; call Append for each record and Close to finish.
func NewV2Writer(w io.Writer, perChunk int) *V2Writer {
	if perChunk <= 0 {
		perChunk = DefaultChunkRecords
	}
	v := &V2Writer{w: w, perChunk: perChunk}
	if _, err := w.Write(magicV2[:]); err != nil {
		v.err = err
	}
	v.off = 4
	return v
}

// Append encodes one record. Records must arrive in non-decreasing At
// order; a violation fails the writer before any byte of the record is
// emitted.
func (v *V2Writer) Append(rec Record) error {
	if v.err != nil {
		return v.err
	}
	if v.closed {
		v.err = fmt.Errorf("trace: append after Close")
		return v.err
	}
	if rec.At < v.lastAt {
		v.err = fmt.Errorf("trace: records not time-ordered at cycle %d", rec.At)
		return v.err
	}
	prev := v.prev
	if v.count == 0 {
		v.first = rec.At
		prev = 0 // first delta is the absolute cycle
	}
	v.payload = binary.AppendUvarint(v.payload, uint64(rec.At-prev))
	flag := uint64(0)
	if rec.Write {
		flag = 1
	}
	v.payload = binary.AppendUvarint(v.payload, flag)
	v.payload = binary.AppendUvarint(v.payload, rec.Addr)
	if rec.Write {
		v.payload = binary.AppendUvarint(v.payload, uint64(rec.Mask))
		v.writes++
	}
	v.prev = rec.At
	v.lastAt = rec.At
	if !v.any {
		v.firstAt = rec.At
		v.any = true
	}
	v.count++
	v.total++
	if v.count >= int64(v.perChunk) {
		v.flush()
	}
	return v.err
}

// flush frames and writes the pending chunk.
func (v *V2Writer) flush() {
	if v.err != nil || v.count == 0 {
		return
	}
	body := binary.AppendUvarint(nil, uint64(v.count))
	body = append(body, v.payload...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if _, err := v.w.Write(hdr[:]); err != nil {
		v.err = err
		return
	}
	if _, err := v.w.Write(body); err != nil {
		v.err = err
		return
	}
	v.chunks = append(v.chunks, ChunkInfo{
		Offset:  v.off,
		Bytes:   int64(len(body)),
		Count:   v.count,
		FirstAt: v.first,
		LastAt:  v.prev,
		Writes:  v.writes,
	})
	v.totalWrites += v.writes
	v.off += 8 + int64(len(body))
	v.payload = v.payload[:0]
	v.count, v.writes = 0, 0
}

// Close flushes the final chunk and writes the end sentinel, the footer
// index, and the trailer. The writer is unusable afterwards.
func (v *V2Writer) Close() error {
	if v.err != nil {
		return v.err
	}
	if v.closed {
		return nil
	}
	v.closed = true
	v.flush()
	if v.err != nil {
		return v.err
	}
	var w checkpoint.Writer
	w.U64(uint64(v.total))
	w.I64(v.firstAt)
	w.I64(v.lastAt)
	w.U64(uint64(v.totalWrites))
	w.Count(len(v.chunks))
	prevOff, prevFirst := int64(4), int64(0)
	for _, c := range v.chunks {
		w.Uvarint(uint64(c.Offset - prevOff))
		w.Uvarint(uint64(c.Bytes))
		w.Uvarint(uint64(c.Count))
		w.Varint(c.FirstAt - prevFirst)
		w.Uvarint(uint64(c.LastAt - c.FirstAt))
		w.Uvarint(uint64(c.Writes))
		prevOff, prevFirst = c.Offset, c.FirstAt
	}
	footer := w.Bytes()
	var frame [12]byte
	binary.LittleEndian.PutUint32(frame[0:], 0) // end-of-chunks sentinel
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(footer))
	if _, err := v.w.Write(frame[:]); err != nil {
		v.err = err
		return v.err
	}
	if _, err := v.w.Write(footer); err != nil {
		v.err = err
		return v.err
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(len(footer)))
	copy(trailer[4:], tailMagic[:])
	if _, err := v.w.Write(trailer[:]); err != nil {
		v.err = err
	}
	return v.err
}

// SaveV2 writes the trace in format v2 with the default chunk size.
// Ordering is validated before the first byte is written.
func (t *Trace) SaveV2(w io.Writer) error {
	return t.SaveV2Chunked(w, DefaultChunkRecords)
}

// SaveV2Chunked is SaveV2 with an explicit records-per-chunk granularity.
func (t *Trace) SaveV2Chunked(w io.Writer, perChunk int) error {
	if err := t.checkOrdered(); err != nil {
		return err
	}
	vw := NewV2Writer(w, perChunk)
	for _, r := range t.Records {
		if err := vw.Append(r); err != nil {
			return err
		}
	}
	return vw.Close()
}

// V2File is a v2 trace opened through an io.ReaderAt: the footer index is
// decoded up front (Info), and record access streams chunk by chunk with
// per-chunk CRC verification — from the start (Stream) or from any index
// entry (StreamAt), which is what makes the format seekable.
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
	info.Records = int64(r.U64())
	info.FirstAt = r.I64()
	info.LastAt = r.I64()
	info.Writes = int64(r.U64())
	nchunks := r.Count()
	info.Chunks = make([]ChunkInfo, 0, nchunks)
	off, firstAt := int64(4), int64(0)
	var sum, sumW int64
	for i := 0; i < nchunks; i++ {
		c := ChunkInfo{}
		off += int64(r.Uvarint())
		c.Offset = off
		c.Bytes = int64(r.Uvarint())
		c.Count = int64(r.Uvarint())
		firstAt += r.Varint()
		c.FirstAt = firstAt
		c.LastAt = firstAt + int64(r.Uvarint())
		c.Writes = int64(r.Uvarint())
		if c.Bytes <= 0 || c.Bytes > maxChunkPayload || c.Count <= 0 ||
			c.Offset+8+c.Bytes > frameOff || c.Writes > c.Count {
			return nil, fmt.Errorf("trace: corrupt index entry %d: %+v", i, c)
		}
		sum += c.Count
		sumW += c.Writes
		info.Chunks = append(info.Chunks, c)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("trace: footer: %w", err)
	}
	if sum != info.Records || sumW != info.Writes {
		return nil, fmt.Errorf("trace: index totals (%d records, %d writes) disagree with chunks (%d, %d)",
			info.Records, info.Writes, sum, sumW)
	}
	return &V2File{ra: ra, info: info}, nil
}

// Info returns the decoded footer index.
func (f *V2File) Info() *Info { return &f.info }

// Stream returns a Stream over every record, decoding chunks lazily.
func (f *V2File) Stream() Stream { return f.StreamAt(0) }

// StreamAt returns a Stream starting at the given chunk index — the seek
// primitive: Info's chunk table maps a target cycle or record ordinal to
// a chunk, and StreamAt starts decoding there without touching the bytes
// before it. Records then flow to the end of the trace.
func (f *V2File) StreamAt(chunk int) Stream {
	if chunk < 0 || chunk > len(f.info.Chunks) {
		return &v2Stream{err: fmt.Errorf("trace: chunk %d out of range [0,%d]", chunk, len(f.info.Chunks))}
	}
	if chunk == len(f.info.Chunks) {
		return &sliceStream{} // past the last chunk: an empty stream
	}
	start := f.info.Chunks[chunk].Offset
	end := f.info.Chunks[len(f.info.Chunks)-1].Offset + 8 + f.info.Chunks[len(f.info.Chunks)-1].Bytes
	s := &v2Stream{r: io.NewSectionReader(f.ra, start, end-start)}
	s.prevAt = f.info.Chunks[chunk].FirstAt // chunks are self-contained; ordering resumes here
	return s
}

// ReadInfo decodes a trace's footer index without touching the record
// chunks (the pratrace -info path).
func ReadInfo(ra io.ReaderAt, size int64) (*Info, error) {
	f, err := OpenV2(ra, size)
	if err != nil {
		return nil, err
	}
	return f.Info(), nil
}

// v2Stream decodes v2 chunk frames sequentially from an io.Reader,
// verifying each chunk's CRC on entry and reusing one payload buffer for
// the whole stream, so steady-state decode allocates nothing per record.
// The end of the chunk sequence is either the zero sentinel (full-file
// streams) or a clean EOF (section streams produced by StreamAt, which
// end before the footer).
type v2Stream struct {
	r       io.Reader
	payload []byte // reused frame buffer
	pos     int    // decode cursor within payload
	n       int64  // records left in the current chunk
	at      int64  // delta accumulator, reset per chunk
	prevAt  int64  // last record cycle seen, for cross-chunk order checks
	done    bool
	err     error
}

func (s *v2Stream) Err() error { return s.err }

// readChunk loads and verifies the next chunk frame. It returns false at
// the end of the chunk sequence or on error.
func (s *v2Stream) readChunk() bool {
	var hdr [8]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		if err == io.EOF {
			s.done = true // section streams end exactly at the last chunk
			return false
		}
		s.err = fmt.Errorf("trace: chunk header: %w", err)
		return false
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size == 0 {
		s.done = true // full-file streams end at the sentinel
		return false
	}
	if size > maxChunkPayload {
		s.err = fmt.Errorf("trace: implausible chunk size %d", size)
		return false
	}
	if cap(s.payload) < int(size) {
		s.payload = make([]byte, size)
	}
	s.payload = s.payload[:size]
	if _, err := io.ReadFull(s.r, s.payload); err != nil {
		s.err = fmt.Errorf("trace: chunk payload: %w", err)
		return false
	}
	if crc := crc32.ChecksumIEEE(s.payload); crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		s.err = fmt.Errorf("trace: chunk CRC mismatch")
		return false
	}
	count, n := binary.Uvarint(s.payload)
	if n <= 0 || count == 0 || count > maxStreamRecords || count > uint64(size) {
		s.err = fmt.Errorf("trace: bad chunk record count")
		return false
	}
	s.pos = n
	s.n = int64(count)
	s.at = 0 // chunk deltas are self-contained
	return true
}

// uvarint decodes the next varint of the current chunk payload.
func (s *v2Stream) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(s.payload[s.pos:])
	if n <= 0 {
		s.err = fmt.Errorf("trace: truncated record in chunk")
		return 0, false
	}
	s.pos += n
	return v, true
}

func (s *v2Stream) Next(rec *Record) bool {
	if s.err != nil || s.done {
		return false
	}
	for s.n == 0 {
		if s.pos != len(s.payload) && len(s.payload) > 0 {
			s.err = fmt.Errorf("trace: %d trailing bytes in chunk", len(s.payload)-s.pos)
			return false
		}
		if !s.readChunk() {
			return false
		}
	}
	delta, ok := s.uvarint()
	if !ok {
		return false
	}
	if delta > maxTimeDelta {
		s.err = fmt.Errorf("trace: implausible time delta %d", delta)
		return false
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
		s.err = fmt.Errorf("trace: records not time-ordered at cycle %d", s.at)
		return false
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
