package trace

import "fmt"

// Stream is the iterator every replay and decode path consumes: Next
// fills the caller's Record and reports whether one was produced, so a
// well-behaved stream decodes millions of records without allocating.
// After Next returns false, Err distinguishes end-of-stream (nil) from a
// decode failure. Records arrive in non-decreasing At order — decoders
// enforce it, so a corrupt input surfaces as an error, never as a
// time-travelling request.
type Stream interface {
	Next(rec *Record) bool
	Err() error
}

// Stream returns an in-memory Stream over the trace's records, the bridge
// from the materialized representation to the streaming replay path.
func (t *Trace) Stream() Stream { return &sliceStream{recs: t.Records} }

// sliceStream iterates a materialized record slice.
type sliceStream struct {
	recs []Record
	i    int
}

func (s *sliceStream) Next(rec *Record) bool {
	if s.i >= len(s.recs) {
		return false
	}
	*rec = s.recs[s.i]
	s.i++
	return true
}

func (s *sliceStream) Err() error { return nil }

// checkMagic vets a trace's first four bytes. A trace file is outside input,
// so the retired flat serialization gets a rejection that names the remedy
// where "bad magic" would not.
func checkMagic(m [4]byte) error {
	switch m {
	case magicV2:
		return nil
	case [4]byte{'P', 'R', 'A', '1'}:
		return fmt.Errorf("trace: PRA1 traces are no longer supported; re-record with pratrace -record")
	}
	return fmt.Errorf("trace: bad magic %q", m)
}

// maxTimeDelta rejects time deltas that would overflow the cycle clock
// when accumulated (corrupt varints decode to huge values long before a
// legitimate capture spans 2^60 cycles).
const maxTimeDelta = 1 << 60
