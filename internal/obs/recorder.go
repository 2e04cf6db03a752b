package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// probeKind distinguishes how a probe's readings become column values.
type probeKind uint8

const (
	kindCounter probeKind = iota // monotonic; the column stores per-epoch deltas
	kindGauge                    // instantaneous; the column stores the reading
)

type probe struct {
	name string
	kind probeKind
	read func() float64
	last float64 // previous reading (counters only)
}

// Recorder samples registered probes every EpochCycles cycles into a
// columnar in-memory buffer. Counters record per-epoch deltas (so each row
// is "what happened during this epoch"); gauges record instantaneous
// values (queue depths, open-bank counts).
//
// Usage: register probes, call Begin(cycle) at the start of the measured
// window (it snapshots counter baselines), then Sample at each epoch
// boundary as the clock advances and Flush at the end for the final
// partial epoch. All methods are safe for concurrent use with Snapshot, so
// an HTTP goroutine can read the buffer while the simulation appends to it.
type Recorder struct {
	mu sync.Mutex

	epoch  int64
	probes []probe
	began  bool

	base int64 // cycle passed to Begin; row cycles are relative to it
	last int64 // absolute cycle of the most recent sample

	cycles []int64     // per-row epoch-end cycle (relative to base)
	cols   [][]float64 // one slice per probe, parallel to probes
}

// NewRecorder creates a recorder sampling every epochCycles cycles.
func NewRecorder(epochCycles int64) *Recorder {
	if epochCycles <= 0 {
		epochCycles = 100_000
	}
	return &Recorder{epoch: epochCycles}
}

// Counter registers a monotonic int64 probe; its column holds per-epoch
// deltas. Registration order fixes column order. Register before Begin.
func (r *Recorder) Counter(name string, read func() int64) {
	r.register(name, kindCounter, func() float64 { return float64(read()) })
}

// CounterF registers a monotonic float64 probe (e.g. accumulated energy).
func (r *Recorder) CounterF(name string, read func() float64) {
	r.register(name, kindCounter, read)
}

// Gauge registers an instantaneous probe (e.g. a queue depth).
func (r *Recorder) Gauge(name string, read func() float64) {
	r.register(name, kindGauge, read)
}

func (r *Recorder) register(name string, kind probeKind, read func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.began {
		panic(fmt.Sprintf("obs: probe %q registered after Begin", name))
	}
	r.probes = append(r.probes, probe{name: name, kind: kind, read: read})
	r.cols = append(r.cols, nil)
}

// Begin marks the start of the measured window at the given cycle: counter
// baselines are snapshotted (so the first epoch's deltas exclude anything
// before, e.g. warmup) and row cycles become relative to it. Any previously
// buffered rows are dropped.
func (r *Recorder) Begin(cycle int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.began = true
	r.base, r.last = cycle, cycle
	r.cycles = r.cycles[:0]
	for i := range r.probes {
		r.probes[i].last = r.probes[i].read()
		r.cols[i] = r.cols[i][:0]
	}
}

// Sample closes an epoch at the given cycle and appends a row. The caller
// keeps the epoch clock: it samples every EpochCycles cycles.
func (r *Recorder) Sample(cycle int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.began {
		return
	}
	r.sampleLocked(cycle)
}

// Flush appends a final partial-epoch row if any cycles elapsed since the
// last sample, so runs whose length is not a multiple of the epoch lose no
// tail activity.
func (r *Recorder) Flush(cycle int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.began && cycle > r.last {
		r.sampleLocked(cycle)
	}
}

func (r *Recorder) sampleLocked(cycle int64) {
	r.cycles = append(r.cycles, cycle-r.base)
	for i := range r.probes {
		p := &r.probes[i]
		v := p.read()
		if p.kind == kindCounter {
			v, p.last = v-p.last, v
		}
		r.cols[i] = append(r.cols[i], v)
	}
	r.last = cycle
}

// formatCell renders a value compactly: integral values print without a
// decimal point so counter columns stay readable.
func formatCell(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV dumps the buffered time-series as CSV: Snapshot's header row,
// then one row per epoch.
func (r *Recorder) WriteCSV(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	b.WriteString(strings.Join(s.Header, ","))
	b.WriteString("\n")
	for _, row := range s.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(formatCell(v))
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TimelineSnapshot is the JSON shape of a recorder dump: column-major would
// be smaller, but row-major matches the CSV and is easier to eyeball live.
type TimelineSnapshot struct {
	EpochCycles int64       `json:"epoch_cycles"`
	Header      []string    `json:"header"`
	Rows        [][]float64 `json:"rows"`
}

// Snapshot copies the buffered series; safe to call while sampling runs.
func (r *Recorder) Snapshot() TimelineSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := TimelineSnapshot{EpochCycles: r.epoch}
	s.Header = append(s.Header, "epoch", "cycle")
	for i := range r.probes {
		s.Header = append(s.Header, r.probes[i].name)
	}
	for row := range r.cycles {
		line := make([]float64, 0, len(r.cols)+2)
		line = append(line, float64(row), float64(r.cycles[row]))
		for c := range r.cols {
			line = append(line, r.cols[c][row])
		}
		s.Rows = append(s.Rows, line)
	}
	return s
}

// WriteJSON dumps the buffered time-series as one JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Snapshot())
}
