package memctrl

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pradram/internal/obs"
)

// stateEventSites names every LevelState emission of the controller by its
// kind and a detail fragment only that site writes (and, for the plain
// wake, one it does not).
var stateEventSites = []struct{ name, kind, detail, not string }{
	{"wake", "wake", "out of", "escalate"},
	{"self-refresh escalation wake", "wake", "to escalate to self-refresh", ""},
	{"drain-start", "drain-start", "high watermark", ""},
	{"drain-stop", "drain-stop", "low watermark", ""},
	{"all-bank refresh", "refresh", "tRFC=", ""},
	{"per-bank refresh", "refresh", "tRFCpb=", ""},
	{"elastic pull-in", "refresh", "pull-in before power-down", ""},
	{"precharge power-down", "power-down", "precharge power-down", ""},
	{"active power-down", "power-down", "active power-down", ""},
	{"self-refresh", "self-refresh", "entering self-refresh", ""},
	{"alert", "alert", "hit threshold", ""},
	{"rfm", "rfm", "tRFM=", ""},
}

// TestStateEventStreamGolden pins the controller's state-event stream: for
// every scheduler-golden cell, driven with the same traffic, a hash of each
// LevelState event (cycle, scope, kind, detail) in emission order and the
// count of each kind (testdata/events.golden). Every emission site must be
// reached by some cell, and the log must be large enough to drop nothing.
//
// It also holds each cell to the wake contract: a scheduling pass at a cycle
// where nothing is due is a no-op, so the cell run again with a pass on every
// DRAM tick (schedGen.everyTick) must render the same sched.golden and
// events.golden lines.
func TestStateEventStreamGolden(t *testing.T) {
	t.Parallel()
	cells := schedCells()
	lines := make([]string, len(cells))
	seen := make([][]bool, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, cell := range cells {
			i, cell := i, cell
			t.Run(cell.name, func(t *testing.T) {
				t.Parallel()
				var sched string
				sched, lines[i], seen[i] = runEventCell(t, i, cell, false)
				if s, e, _ := runEventCell(t, i, cell, true); s != sched || e != lines[i] {
					t.Errorf("a pass on every tick changed the cell:\n sleeping   %s\n            %s\n every tick %s\n            %s",
						sched, lines[i], s, e)
				}
			})
		}
	})
	for s, site := range stateEventSites {
		reached := false
		for i := range seen {
			reached = reached || (seen[i] != nil && seen[i][s])
		}
		if !reached {
			t.Errorf("no cell emits a %s event (%s: ...%s...)", site.name, site.kind, site.detail)
		}
	}
	compareGolden(t, "events.golden", strings.Join(lines, "\n")+"\n")
}

// runEventCell drives scheduler-golden cell i with the state-event log
// attached and returns its sched.golden and events.golden lines and which
// stateEventSites it reached.
func runEventCell(t *testing.T, i int, cell schedCell, everyTick bool) (sched, events string, seen []bool) {
	t.Helper()
	cfg := DefaultConfig()
	cell.mod(&cfg)
	g := newSchedGen(t, cfg, cell.mode, uint64(i+1))
	g.everyTick = everyTick
	ev := obs.NewEventLog(1<<14, obs.LevelState)
	g.c.AttachObs(nil, ev)
	g.drain(t, g.run(t, 0, cell.cycles))
	if n := ev.Dropped(); n != 0 {
		t.Fatalf("event log dropped %d events", n)
	}
	h := sha256.New()
	counts := map[string]int{}
	seen = make([]bool, len(stateEventSites))
	for _, e := range ev.Events() {
		fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s\n", e.Cycle, e.Scope, e.Kind, e.Detail)
		counts[e.Kind]++
		for s, site := range stateEventSites {
			if e.Kind == site.kind && strings.Contains(e.Detail, site.detail) &&
				(site.not == "" || !strings.Contains(e.Detail, site.not)) {
				seen[s] = true
			}
		}
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %x", cell.name, h.Sum(nil)[:12])
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, counts[k])
	}
	return g.finish(cell.name), b.String(), seen
}
