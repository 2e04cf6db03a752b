package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const declarationFromTest = "../BENCHMARK.json"

// A hand-built tree: a tick with two children, one of which has a child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: kLoop, parent: -1, start: 0, end: 1000},
		{kind: kCtrlTick, parent: 0, start: 100, end: 600},
		{kind: kFill, parent: 1, start: 200, end: 300},
		{kind: kCPUTick, parent: 0, start: 700, end: 900},
	}
	const costIn, costOut = 10, 5
	self, n := selfTimes(spans, make([]int64, len(spans)), costIn, costOut)
	want := map[kind]int64{
		kFill:     100 - costIn,
		kCtrlTick: 500 - costIn - (100 + costOut),
		kCPUTick:  200 - costIn,
		kLoop:     1000 - costIn - (500 + costOut) - (200 + costOut),
	}
	for k := kind(0); k < numKinds; k++ {
		wantN := int64(0)
		if _, ok := want[k]; ok {
			wantN = 1
		}
		if self[k] != want[k] || n[k] != wantN {
			t.Errorf("kind %d: self %d over %d spans, want %d over %d", k, self[k], n[k], want[k], wantN)
		}
	}
}

// Timers armed on one tick in sampleGap: counts stay exact, shares come
// from the armed ticks alone and sum to 1, and a layer's time over the run
// is its share of the run's wall.
func TestTracerSampling(t *testing.T) {
	tr := &tracer{base: time.Now(), wait: 1, rng: 1}
	const ticks = 1000 * sampleGap
	armed := int64(0)
	for tick := 1; tick <= ticks; tick++ {
		tr.tick()
		if tr.armed {
			armed++
		}
		tr.begin(kLoop)
		tr.begin(kCtrlTick)
		tr.end()
		tr.end()
		if tr.armed {
			// Replace the clock readings: the tick took 400 ns, 300 of them in the controller.
			tr.spans[0].start, tr.spans[0].end = 0, 400
			tr.spans[1].start, tr.spans[1].end = 50, 350
			tr.fold()
		}
	}
	if tr.calls[kCtrlTick] != ticks || tr.timed[kCtrlTick] != armed {
		t.Fatalf("calls %d timed %d, want %d and %d", tr.calls[kCtrlTick], tr.timed[kCtrlTick], ticks, armed)
	}
	if armed < 900 || armed > 1100 {
		t.Errorf("%d of %d ticks armed, want about one in %d", armed, ticks, sampleGap)
	}
	if got := tr.share(kCtrlTick); got != 0.75 {
		t.Errorf("controller share %v, want 0.75", got)
	}
	if got := tr.share(kLoop); got != 0.25 {
		t.Errorf("loop share %v, want 0.25", got)
	}
	var sum float64
	for k := kind(0); k < numKinds; k++ {
		sum += tr.share(k)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := tr.perCall(kCtrlTick); got != 300 {
		t.Errorf("per call %v ns, want 300", got)
	}
}

func TestCalibrateLeavesTracerClean(t *testing.T) {
	tr := newTracer()
	if tr.costIn < 0 || tr.costOut < 0 || tr.costIn+tr.costOut == 0 {
		t.Errorf("timer cost in=%d out=%d", tr.costIn, tr.costOut)
	}
	if tr.armed || len(tr.spans) != 0 || len(tr.open) != 0 || tr.calls != [numKinds]int64{} {
		t.Errorf("calibration left state behind: %+v", tr)
	}
}

// The fixture is the table1 block of EXPERIMENTS.md.
func TestTable1Cells(t *testing.T) {
	data, err := os.ReadFile("testdata/table1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := table1Benchmarks(string(data)); len(got) != 8 || got[0] != "bzip2" || got[7] != "LinkedList" {
		t.Fatalf("benchmarks %v", got)
	}
	cells, err := table1Cells(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 48 {
		t.Fatalf("%d cells, want 48", len(cells))
	}
	if cells[1] != (cell{3.3, 1}) || cells[47] != (cell{37.5, 36}) {
		t.Errorf("cells[1] = %v, cells[47] = %v", cells[1], cells[47])
	}
	if got := meanAbsErr(cells); math.Abs(got-3.608333333333333) > 1e-9 {
		t.Errorf("mean error %v pp", got)
	}
	if _, err := table1Cells("benchmark x\n---\nbzip2 1.0 (2)\n"); err == nil {
		t.Error("a row with one cell parsed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and metrics.go/workloads.go declare the same things.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	decl, err := loadDeclaration(declarationFromTest)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, declared []declaredMetric, coded []metricDef, bounded bool) {
		if len(declared) != len(coded) {
			t.Errorf("%s: %d declared, %d in metrics.go", what, len(declared), len(coded))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", what, d.Name)
			}
			seen[d.Name] = true
			if i >= len(coded) {
				continue
			}
			if c := coded[i]; c.name != d.Name || c.unit != d.Unit || c.better != d.Better {
				t.Errorf("%s[%d]: declared %+v, metrics.go has %+v", what, i, d, c)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	if len(decl.Workloads) != len(scenarios) {
		t.Fatalf("%d workloads declared, %d scenarios", len(decl.Workloads), len(scenarios))
	}
	for i, w := range decl.Workloads {
		if w.Name != scenarios[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q vs scenario %q", i, w.Name, scenarios[i].name)
		}
	}
}

// Every scenario at 1/50 of its budget, both passes: no operation may
// fail (which covers traced == untraced, restored == cold, the replay's
// record count and the LatBreak sum), and the contract line must carry
// exactly the declared names.
func TestQuickSmoke(t *testing.T) {
	opt := options{
		params:   params{seed: 7, quick: true, workers: 2, tmp: t.TempDir()},
		endToEnd: true, layers: true,
	}
	for _, sc := range scenarios {
		wr := runScenario(sc, opt)
		if wr.Failed != 0 || wr.Attempted == 0 || wr.Digest == "" {
			t.Errorf("%s: attempted %d, failed %d: %v", sc.name, wr.Attempted, wr.Failed, wr.Failures)
			continue
		}
		for _, d := range endToEnd {
			if v := wr.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", sc.name, d.name, v)
			}
		}
		for name, v := range wr.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != defs[name].unit {
				t.Errorf("%s: %s = %+v", sc.name, name, v)
			}
		}
		if _, isSim := wr.Metrics["sim.loop_share"]; isSim {
			var sum float64
			for _, name := range []string{"sim.loop_share", "sim.nextevent_share", "workload.next_share",
				"cpu.tick_self_share", "cache.access_self_share", "cache.tick_self_share", "cache.fill_share",
				"memctrl.tick_self_share", "memctrl.enqueue_share"} {
				sum += wr.Metrics[name].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: shares sum to %v", sc.name, sum)
			}
		}

		var buf bytes.Buffer
		wr.print(&buf, opt)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: result line: %v", sc.name, err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[key]; !ok || len(line) != 4 {
				t.Errorf("%s: result line keys %v", sc.name, line)
			}
		}
		var printed metrics
		if err := json.Unmarshal(line["metrics"], &printed); err != nil || len(printed) != len(defs) {
			t.Errorf("%s: result line has %d metrics, %d are declared (%v)", sc.name, len(printed), len(defs), err)
		}
		for name := range printed {
			if _, ok := defs[name]; !ok {
				t.Errorf("%s: result line has undeclared metric %s", sc.name, name)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(opt.tmp, "*")); len(left) != 0 {
		t.Errorf("trace files left behind: %v", left)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := func() report {
		m := metrics{}
		m.set("wall_s", 1.0)
		m.set("sim_cycles_per_s", 1000)
		m.set("sim.ticks_executed", 500)
		m.set("cpu.tick_self_share", 0.2)
		return report{Seed: 1, Workloads: []workloadReport{{Name: "paper_gups_pra", Digest: "d", Metrics: m}}}
	}
	a := write("a.json", base())

	cases := []struct {
		name   string
		change func(*report)
		want   int
	}{
		{"identical", func(*report) {}, 0},
		{"within the bound", func(r *report) { r.Workloads[0].Metrics.set("wall_s", 1.1) }, 0},
		{"slower beyond the bound", func(r *report) { r.Workloads[0].Metrics.set("wall_s", 1.3) }, 1},
		{"faster", func(r *report) { r.Workloads[0].Metrics.set("wall_s", 0.5) }, 0},
		{"throughput lower beyond the bound", func(r *report) { r.Workloads[0].Metrics.set("sim_cycles_per_s", 700) }, 1},
		{"a count moved", func(r *report) { r.Workloads[0].Metrics.set("sim.ticks_executed", 501) }, 1},
		{"a layer's host share moved", func(r *report) { r.Workloads[0].Metrics.set("cpu.tick_self_share", 0.4) }, 0},
		{"digest differs", func(r *report) { r.Workloads[0].Digest = "e" }, 1},
		{"an operation failed", func(r *report) { r.Workloads[0].Failed = 1 }, 1},
	}
	for _, tc := range cases {
		r := base()
		tc.change(&r)
		var out, errOut bytes.Buffer
		if got := compareReports(declarationFromTest, a, write("b.json", r), &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
	}
}
