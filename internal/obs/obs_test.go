package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Recorder ---

func TestRecorderCounterDeltas(t *testing.T) {
	var acts int64
	var depth float64
	r := NewRecorder(100)
	r.Counter("acts", func() int64 { return acts })
	r.Gauge("depth", func() float64 { return depth })

	acts, depth = 50, 3 // pre-Begin activity must not leak into epoch 0
	r.Begin(1000)

	acts, depth = 80, 7
	r.Sample(1100)
	acts, depth = 80, 2 // idle epoch
	r.Sample(1200)
	acts = 95
	r.Flush(1250) // partial tail epoch

	if got := column(r, "acts"); len(got) != 3 || got[0] != 30 || got[1] != 0 || got[2] != 15 {
		t.Fatalf("acts deltas = %v, want [30 0 15]", got)
	}
	if got := column(r, "depth"); len(got) != 3 || got[0] != 7 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("depth gauge = %v, want [7 2 2]", got)
	}
	if n := len(r.cycles); n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
	// Flush at the same cycle again must not add an empty row.
	r.Flush(1250)
	if n := len(r.cycles); n != 3 {
		t.Fatalf("rows after double flush = %d, want 3", n)
	}
}

// column returns the recorded series for one probe name (nil if unknown).
func column(r *Recorder, name string) []float64 {
	for i := range r.probes {
		if r.probes[i].name == name {
			return r.cols[i]
		}
	}
	return nil
}

func TestRecorderBeginResets(t *testing.T) {
	var n int64
	r := NewRecorder(10)
	r.Counter("n", func() int64 { return n })
	r.Begin(0)
	n = 5
	r.Sample(10)
	r.Begin(100) // e.g. restart after warmup
	if n := len(r.cycles); n != 0 {
		t.Fatalf("rows after re-Begin = %d, want 0", n)
	}
	n = 8
	r.Sample(110)
	if col := column(r, "n"); len(col) != 1 || col[0] != 3 {
		t.Fatalf("deltas after re-Begin = %v, want [3]", col)
	}
}

func TestRecorderRegisterAfterBeginPanics(t *testing.T) {
	r := NewRecorder(10)
	r.Begin(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering a probe after Begin")
		}
	}()
	r.Counter("late", func() int64 { return 0 })
}

// TestRecorderCSVGolden pins the exact CSV shape: header naming, relative
// cycles, integral formatting of whole-valued floats.
func TestRecorderCSVGolden(t *testing.T) {
	var acts int64
	var frac float64
	r := NewRecorder(100)
	r.Counter("acts", func() int64 { return acts })
	r.Gauge("frac", func() float64 { return frac })
	r.Begin(200)
	acts, frac = 7, 0.5
	r.Sample(300)
	acts, frac = 9, 4
	r.Sample(400)

	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "epoch,cycle,acts,frac\n" +
		"0,100,7,0.5\n" +
		"1,200,2,4\n"
	if b.String() != want {
		t.Fatalf("CSV mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRecorderSnapshotJSONShape(t *testing.T) {
	var n int64
	r := NewRecorder(10)
	r.Counter("n", func() int64 { return n })
	r.Begin(0)
	n = 4
	r.Sample(10)
	s := r.Snapshot()
	if s.EpochCycles != 10 {
		t.Fatalf("epoch = %d, want 10", s.EpochCycles)
	}
	if len(s.Header) != 3 || s.Header[2] != "n" {
		t.Fatalf("header = %v", s.Header)
	}
	if len(s.Rows) != 1 || len(s.Rows[0]) != 3 || s.Rows[0][2] != 4 {
		t.Fatalf("rows = %v", s.Rows)
	}
}

// --- EventLog ---

func TestEventLogRingWraparound(t *testing.T) {
	l := NewEventLog(4, LevelState)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Cycle: int64(i), Level: LevelState, Kind: "k"})
	}
	ev := l.Events()
	if len(ev) != 4 || l.Dropped() != 6 {
		t.Fatalf("len/dropped = %d/%d, want 4/6", len(ev), l.Dropped())
	}
	for i, e := range ev {
		if want := int64(6 + i); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first)", i, e.Cycle, want)
		}
	}
}

func TestEventLogLevelGating(t *testing.T) {
	var nilLog *EventLog
	if nilLog.Enabled(LevelState) || nilLog.Enabled(LevelCmd) {
		t.Fatal("nil log must report disabled")
	}
	nilLog.Emit(Event{Level: LevelState}) // must not panic
	nilLog.Reset()
	if len(nilLog.Events()) != 0 || nilLog.Dropped() != 0 {
		t.Fatal("nil log must be empty")
	}

	l := NewEventLog(8, LevelState)
	if !l.Enabled(LevelState) || l.Enabled(LevelCmd) {
		t.Fatalf("state-level log gating wrong")
	}
	l.Emit(Event{Level: LevelCmd, Kind: "cmd"}) // above level: dropped
	l.Emit(Event{Level: LevelState, Kind: "state"})
	if n := len(l.Events()); n != 1 {
		t.Fatalf("len = %d, want 1 (cmd event must be gated out)", n)
	}
	l.Reset()
	if n := len(l.Events()); n != 0 || l.Dropped() != 1 {
		t.Fatalf("after reset len=%d dropped=%d, want 0/1", n, l.Dropped())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"off": LevelOff, "": LevelOff, "state": LevelState, "cmd": LevelCmd} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("expected error for unknown level")
	}
}

func TestEventLogDump(t *testing.T) {
	l := NewEventLog(4, LevelCmd)
	l.Emit(Event{Cycle: 42, Level: LevelCmd, Scope: "dram.ch0", Kind: "ACT", Detail: "r0 b3"})
	var b strings.Builder
	if err := l.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "level cmd") || !strings.Contains(out, "ACT") || !strings.Contains(out, "r0 b3") {
		t.Fatalf("dump missing fields:\n%s", out)
	}
}

// --- Progress ---

func TestProgressCounts(t *testing.T) {
	var nilP *Progress
	nilP.AddTotal(3)
	nilP.Start()
	nilP.Done() // nil-safety
	if s := nilP.Snapshot(); s.Total != 0 {
		t.Fatalf("nil progress total = %d", s.Total)
	}

	p := NewProgress()
	p.AddTotal(3)
	p.Start()
	p.Start()
	p.Done()
	s := p.Snapshot()
	if s.Total != 3 || s.Done != 1 || s.InFlight != 1 {
		t.Fatalf("snapshot = %+v, want total 3 done 1 inflight 1", s)
	}
	if !strings.Contains(s.String(), "1/3 runs done") {
		t.Fatalf("string = %q", s.String())
	}
}

func TestProgressReporter(t *testing.T) {
	p := NewProgress()
	var b syncBuilder
	stop := p.Reporter(&b, time.Millisecond, "test")
	p.AddTotal(2)
	p.Start()
	p.Done()
	p.Start()
	p.Done()
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	out := b.String()
	if !strings.Contains(out, "test: 2/2 runs done") {
		t.Fatalf("reporter output missing final line:\n%s", out)
	}
}

// syncBuilder is a goroutine-safe strings.Builder for reporter tests.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// --- HTTP server ---

func TestServerVars(t *testing.T) {
	srv := NewServer()
	p := NewProgress()
	p.AddTotal(5)
	srv.Publish("progress", func() any { return p.Snapshot() })

	ts := httptest.NewServer(srv.mux)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "/vars/progress") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	if code, body := get("/vars/progress"); code != 200 || !strings.Contains(body, `"total": 5`) {
		t.Fatalf("one var: code %d body %q", code, body)
	}
	if code, body := get("/vars"); code != 200 || !strings.Contains(body, "progress") {
		t.Fatalf("all vars: code %d body %q", code, body)
	}
	if code, _ := get("/vars/nope"); code != 404 {
		t.Fatalf("unknown var: code %d, want 404", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("pprof: code %d", code)
	}
}

// TestServerStartBindsSynchronously: an address that cannot be listened on
// is Start's error, not a line a background goroutine prints mid-run; once
// Start returns nil the server answers, including for variables published
// afterwards.
func TestServerStartBindsSynchronously(t *testing.T) {
	if err := NewServer().Start("127.0.0.1:99999"); err == nil {
		t.Error("an invalid port must fail Start")
	}
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := held.Addr().String()
	srv := NewServer()
	if err := srv.Start(addr); err == nil {
		t.Fatalf("Start on %s, which is already bound, must fail", addr)
	}
	held.Close()
	if err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	srv.Publish("late", func() any { return 7 })
	resp, err := http.Get("http://" + addr + "/vars/late")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "7" {
		t.Errorf("GET /vars/late: code %d body %q, want 200 and 7", resp.StatusCode, body)
	}
}

// TestServerContentTypes pins the response headers tooling depends on:
// JSON endpoints must say application/json (curl-into-jq pipelines and
// browsers both branch on it), the index stays plain text, and an error
// response does not masquerade as JSON.
func TestServerContentTypes(t *testing.T) {
	srv := NewServer()
	srv.Publish("x", func() any { return 1 })

	ts := httptest.NewServer(srv.mux)
	defer ts.Close()

	ctype := func(path string) string {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type")
	}

	const wantJSON = "application/json; charset=utf-8"
	if got := ctype("/vars"); got != wantJSON {
		t.Errorf("/vars Content-Type = %q, want %q", got, wantJSON)
	}
	if got := ctype("/vars/x"); got != wantJSON {
		t.Errorf("/vars/x Content-Type = %q, want %q", got, wantJSON)
	}
	if got := ctype("/"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("index Content-Type = %q, want text/plain", got)
	}
	if got := ctype("/vars/nope"); strings.Contains(got, "json") {
		t.Errorf("404 Content-Type = %q, must not claim JSON", got)
	}
}
