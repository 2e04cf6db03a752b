// Package trace records and replays DRAM request streams. A capture wraps
// the memory controller during a full-system run and logs every line fill
// and dirty writeback (with its FGD byte mask and arrival cycle); a replay
// feeds a recorded stream straight into a fresh memory controller, without
// the CPU and cache layers, so scheme/policy what-ifs on an identical
// request sequence run an order of magnitude faster than full simulation.
//
// A trace serializes in one format (DESIGN.md §4j): "PRA2" frames varint-
// delta records into CRC-guarded chunks with a footer index, so a reader can
// print totals without decoding (ReadInfo), seek to any chunk through an
// io.ReaderAt (V2File.StreamAt), and detect truncation or corruption instead
// of silently mis-decoding. Every decode goes through the Stream interface
// (Open, V2File.Stream), and ReplayStream drives a replay straight off a
// Stream — constant memory, zero steady-state allocations per record.
package trace

import (
	"fmt"

	"pradram/internal/core"
)

// Record is one DRAM request as seen at the controller boundary.
type Record struct {
	At    int64 // CPU cycle the request was enqueued
	Write bool
	Addr  uint64
	Mask  core.ByteMask // writes: FGD dirty bytes (0 for reads)
}

// Trace is an ordered request stream.
type Trace struct {
	Records []Record
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// checkOrdered validates the time ordering the serializer requires. SaveV2
// runs it before writing a single byte, so an unordered trace fails cleanly
// instead of aborting mid-write and leaving a torn output file behind.
func (t *Trace) checkOrdered() error {
	prev := int64(0)
	for _, r := range t.Records {
		if r.At < prev {
			return fmt.Errorf("trace: records not time-ordered at cycle %d", r.At)
		}
		prev = r.At
	}
	return nil
}

// Backend is the controller-facing interface the capture tees into (a
// structural copy of cache.Backend, kept local to avoid a dependency
// cycle).
type Backend interface {
	Read(addr uint64, done core.Done) bool
	Write(addr uint64, mask core.ByteMask) bool
}

// Capture wraps a Backend and records every accepted request. Now must
// return the current CPU cycle.
type Capture struct {
	Inner Backend
	Now   func() int64
	Trace Trace
}

// Read records and forwards a line fill.
func (c *Capture) Read(addr uint64, done core.Done) bool {
	ok := c.Inner.Read(addr, done)
	if ok {
		c.Trace.Records = append(c.Trace.Records, Record{At: c.Now(), Addr: addr})
	}
	return ok
}

// Write records and forwards a writeback.
func (c *Capture) Write(addr uint64, mask core.ByteMask) bool {
	ok := c.Inner.Write(addr, mask)
	if ok {
		c.Trace.Records = append(c.Trace.Records, Record{At: c.Now(), Write: true, Addr: addr, Mask: mask})
	}
	return ok
}
