package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Progress tracks a campaign of independent runs (the experiment runner's
// worker pool): total known work, completions, and how many
// runs are in flight right now. All methods are nil-safe and lock-free, so
// instrumented code can call them unconditionally from worker goroutines.
type Progress struct {
	total    atomic.Int64
	done     atomic.Int64
	inflight atomic.Int64
	startNs  atomic.Int64 // wall clock of the first AddTotal/Start
}

// NewProgress returns an empty tracker.
func NewProgress() *Progress { return &Progress{} }

func (p *Progress) markStart() {
	p.startNs.CompareAndSwap(0, time.Now().UnixNano())
}

// AddTotal announces n more units of known work.
func (p *Progress) AddTotal(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.markStart()
	p.total.Add(n)
}

// Start marks one unit as in flight.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.markStart()
	p.inflight.Add(1)
}

// Done marks one in-flight unit as completed.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	p.inflight.Add(-1)
	p.done.Add(1)
}

// ProgressSnapshot is one consistent-enough view of the counters plus the
// derived timing estimates.
type ProgressSnapshot struct {
	Total    int64         `json:"total"`
	Done     int64         `json:"done"`
	InFlight int64         `json:"in_flight"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	ETA      time.Duration `json:"eta_ns"` // 0 when unknown
}

// Snapshot reads the counters and derives elapsed/ETA. ETA extrapolates
// the mean completion rate so far; it is 0 until the first completion.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		Total:    p.total.Load(),
		Done:     p.done.Load(),
		InFlight: p.inflight.Load(),
	}
	if start := p.startNs.Load(); start != 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - start)
	}
	if s.Done > 0 && s.Total > s.Done {
		s.ETA = time.Duration(float64(s.Elapsed) / float64(s.Done) * float64(s.Total-s.Done))
	}
	return s
}

// String renders the standard one-line progress report.
func (s ProgressSnapshot) String() string {
	line := fmt.Sprintf("%d/%d runs done, %d in flight, elapsed %s",
		s.Done, s.Total, s.InFlight, s.Elapsed.Round(time.Second))
	if s.ETA > 0 {
		line += fmt.Sprintf(", ETA %s", s.ETA.Round(time.Second))
	}
	return line
}

// Reporter starts a goroutine that writes "prefix: <snapshot>" to w every
// interval while the counters are moving (unchanged snapshots are not
// re-printed). The returned stop function halts the reporter and, if any
// work was tracked, prints one final line; it is safe to call twice.
func (p *Progress) Reporter(w io.Writer, interval time.Duration, prefix string) (stop func()) {
	if p == nil || w == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var last ProgressSnapshot
		for {
			select {
			case <-quit:
				if s := p.Snapshot(); s.Total > 0 {
					fmt.Fprintf(w, "%s: %s\n", prefix, s)
				}
				return
			case <-tick.C:
				s := p.Snapshot()
				if s.Total == 0 || (s.Done == last.Done && s.InFlight == last.InFlight && s.Total == last.Total) {
					continue
				}
				last = s
				fmt.Fprintf(w, "%s: %s\n", prefix, s)
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(quit)
			<-finished
		}
	}
}
