package obs

import (
	"fmt"
	"io"
	"sync"

	"pradram/internal/core"
)

// Level orders event verbosity. A log at LevelCmd records state events too.
type Level uint8

const (
	// LevelOff records nothing; the zero value keeps tracing disabled.
	LevelOff Level = iota
	// LevelState records state transitions: write-drain start/stop,
	// refresh windows, rank power-down/wake, DBI proactive sweeps.
	LevelState
	// LevelCmd additionally records every DRAM command as issued.
	LevelCmd
)

// LevelNames spells each Level once; the empty string is off.
var LevelNames = core.Enum[Level]{
	Names:   []string{"off", "state", "cmd"},
	Aliases: map[string]Level{"": LevelOff},
}

// String returns the level's flag name.
func (l Level) String() string { return LevelNames.Name(l) }

// Set parses a level name into l (*Level is a flag.Value).
func (l *Level) Set(name string) error { return LevelNames.Set(l, name) }

// Event is one structured trace entry. Cycle is in the emitting component's
// clock domain (memory cycles for memctrl/dram scopes, CPU cycles for the
// cache scope); Scope disambiguates.
type Event struct {
	Cycle  int64  `json:"cycle"`
	Level  Level  `json:"level"`
	Scope  string `json:"scope"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// String renders one post-mortem log line.
func (e Event) String() string {
	return fmt.Sprintf("%10d %-5s %-12s %-12s %s", e.Cycle, e.Level, e.Scope, e.Kind, e.Detail)
}

// EventLog is a fixed-capacity ring of Events: emission past capacity
// overwrites the oldest entries, so a run of any length keeps the most
// recent window for post-mortems. All methods are nil-safe — a nil
// *EventLog is simply "tracing disabled", which is what makes emission
// sites zero-cost when off:
//
//	if log.Enabled(obs.LevelState) {
//	    log.Emit(obs.Event{...}) // detail string built only when enabled
//	}
type EventLog struct {
	mu      sync.Mutex
	level   Level
	buf     []Event
	start   int    // index of the oldest entry
	n       int    // live entries (<= cap)
	dropped uint64 // events discarded: ring overwrites + Reset flushes
}

// DefaultEventCap is the ring capacity a simulation's event log uses.
const DefaultEventCap = 4096

// NewEventLog creates a ring of the given capacity recording events at or
// below level.
func NewEventLog(capacity int, level Level) *EventLog {
	return &EventLog{level: level, buf: make([]Event, capacity)}
}

// Enabled reports whether events of verbosity v are recorded. Nil-safe.
func (l *EventLog) Enabled(v Level) bool {
	return l != nil && v != LevelOff && v <= l.level
}

// Level returns the configured verbosity (LevelOff for a nil log).
func (l *EventLog) Level() Level {
	if l == nil {
		return LevelOff
	}
	return l.level
}

// Emit records an event if its level is enabled. Nil-safe.
func (l *EventLog) Emit(e Event) {
	if !l.Enabled(e.Level) {
		return
	}
	l.mu.Lock()
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	l.mu.Unlock()
}

// Dropped returns how many events were discarded: ring overwrites plus
// events flushed by Reset.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns the ring's contents oldest-first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Reset drops all buffered events (counting them as dropped), e.g. at the
// warmup/measurement boundary.
func (l *EventLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.dropped += uint64(l.n)
	l.start, l.n = 0, 0
	l.mu.Unlock()
}

// Dump writes the buffered events oldest-first as text, with a one-line
// header noting level and drop count.
func (l *EventLog) Dump(w io.Writer) error {
	if l == nil {
		_, err := io.WriteString(w, "event log disabled\n")
		return err
	}
	events := l.Events()
	if _, err := fmt.Fprintf(w, "event log: level %s, %d buffered, %d dropped (ring cap %d)\n",
		l.Level(), len(events), l.Dropped(), cap(l.buf)); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
