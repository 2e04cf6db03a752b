package main

import (
	"time"

	"pradram/internal/stats"
)

// kind names the layer boundary a span is recorded at: the caller is the
// layer above, the callee the layer the span is charged to.
type kind uint8

const (
	kLoop          kind = iota // one executed tick of the run loop, the root of its spans
	kCacheTick                 // run loop -> cache.Hierarchy.Tick
	kCPUTick                   // run loop -> cpu.Core.Tick
	kCtrlTick                  // run loop -> memctrl.Controller.Tick (dram inside)
	kFastForward               // run loop -> the NextEvent/SkipTo/SkipCycles block
	kCtrlNextEvent             // fast-forward -> memctrl.Controller.NextEvent
	kGenNext                   // cpu -> workload generator Next
	kAccess                    // cpu -> cache.Hierarchy.Load/Store
	kEnqueue                   // cache -> memctrl.Controller.Read/Write
	kFill                      // memctrl -> cache fill completion (core.Done.Fn)
	numKinds
)

// span is one timed call across a layer boundary.
type span struct {
	kind       kind
	parent     int32 // index of the span that caused it; -1 for a tick's root
	start, end int64 // ns since the tracer's base
}

// sampleGap is the mean distance between ticks whose spans are timed. A
// core can call Next eight times a tick, so timing every tick would swamp
// the run; call counts stay exact on every tick. The gaps are pseudo-random
// (1 to 2*sampleGap-1 ticks) because a fixed stride aliases: the DRAM clock
// ticks every 4th CPU cycle, and a pointer chase repeats the same few ticks
// per miss, so a stride sees one phase of the pattern and calls it the run.
const sampleGap = 61

// tracer records spans for the ticks it is armed on and folds them into
// per-kind self time when the tick ends, so memory stays bounded by one
// tick's spans; nothing is written out until the run is over.
type tracer struct {
	base  time.Time
	armed bool
	wait  int64  // ticks until the next armed one
	rng   uint64 // xorshift state for the gaps; fixed seed, so runs repeat
	spans []span
	open  []int32 // stack of open span indices
	child []int64 // scratch for selfTimes

	calls [numKinds]int64 // every call, armed or not
	timed [numKinds]int64 // calls recorded as spans
	self  [numKinds]int64 // corrected self ns of the recorded spans

	// Timer cost per span, measured by calibrate: costIn is the part that
	// lands inside the span's own [start,end], costOut the part that lands
	// in its parent around it.
	costIn, costOut int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), wait: 1, rng: 0x9E3779B97F4A7C15}
	t.calibrate()
	return t
}

// tick starts an executed tick, arming the timers for it or not.
func (t *tracer) tick() {
	t.wait--
	t.armed = t.wait == 0
	if t.armed {
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		t.wait = 1 + int64(t.rng%(2*sampleGap-1))
	}
}

// begin and end bracket a call across a layer boundary. Their unarmed
// path is small enough to inline: it runs on every call of every tick.
func (t *tracer) begin(k kind) {
	t.calls[k]++
	if t.armed {
		t.push(k)
	}
}

func (t *tracer) end() {
	if t.armed {
		t.pop()
	}
}

func (t *tracer) push(k kind) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{kind: k, parent: parent, start: int64(time.Since(t.base))})
}

func (t *tracer) pop() {
	now := int64(time.Since(t.base))
	n := len(t.open) - 1
	t.spans[t.open[n]].end = now
	t.open = t.open[:n]
}

// fold charges the finished tick's spans to their kinds and clears them.
func (t *tracer) fold() {
	if cap(t.child) < len(t.spans) {
		t.child = make([]int64, 2*len(t.spans))
	}
	self, n := selfTimes(t.spans, t.child[:len(t.spans)], t.costIn, t.costOut)
	for k := range self {
		t.self[k] += self[k]
		t.timed[k] += n[k]
	}
	t.spans = t.spans[:0]
}

// selfTimes returns, per kind, the summed self time of spans and how many
// spans contributed. A span's self time is its duration minus the part its
// child spans cover; costIn is subtracted from every span and costOut from
// its parent once per child, removing the timer's own cost. Parents
// precede their children in spans; child is zeroed scratch of equal length.
func selfTimes(spans []span, child []int64, costIn, costOut int64) (self, n [numKinds]int64) {
	for i := range child {
		child[i] = 0
	}
	for i := len(spans) - 1; i >= 0; i-- {
		s := spans[i]
		dur := s.end - s.start
		self[s.kind] += dur - costIn - child[i]
		n[s.kind]++
		if s.parent >= 0 {
			child[s.parent] += dur + costOut
		}
	}
	return self, n
}

// share is kind k's part of the time the armed ticks took, the timer's own
// cost taken out. Every armed tick is one kLoop span with everything else
// below it, so the shares of all kinds sum to 1 by construction and
// share(kLoop) is what no layer accounts for: the run loop itself.
// Sampling whole ticks is what lets times scale by the sampling ratio: a
// layer's time over the run is its share of the run's wall.
func (t *tracer) share(k kind) float64 {
	var sum int64
	for _, v := range t.self {
		sum += v
	}
	return stats.Ratio(float64(t.self[k]), float64(sum))
}

// perCall is kind k's mean self time per timed call in ns.
func (t *tracer) perCall(k kind) float64 {
	return stats.Ratio(float64(t.self[k]), float64(t.timed[k]))
}

// calibrate measures the timer's cost per span from empty spans under one
// parent. Interference only adds, so each part keeps the cheapest of many
// short rounds: one disturbed calibration would skew every share of a run.
func (t *tracer) calibrate() {
	const rounds, n = 50, 400
	for r := 0; r < rounds; r++ {
		t.armed = true
		t.begin(kLoop)
		for i := 0; i < n; i++ {
			t.begin(kFill)
			t.end()
		}
		t.end()
		var in int64
		for _, s := range t.spans[1:] {
			in += s.end - s.start
		}
		in /= n
		out := (t.spans[0].end-t.spans[0].start)/n - in
		if r == 0 || in < t.costIn {
			t.costIn = in
		}
		if r == 0 || out < t.costOut {
			t.costOut = out
		}
		t.spans = t.spans[:0]
	}
	t.armed = false
	t.calls = [numKinds]int64{}
}
