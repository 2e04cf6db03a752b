package memctrl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
	"pradram/internal/dram"
)

var updateGolden = flag.Bool("update", false, "rewrite the scheduler golden files with current output")

// The scheduler goldens pin the exact command stream FR-FCFS produces: any
// rewrite of the queue structures must leave testdata/sched.golden and
// testdata/ckpt.golden byte-identical (regenerate with -update only for an
// intended change of the schedule).

// schedTraffic selects how schedGen injects requests.
type schedTraffic uint8

const (
	trSaturate  schedTraffic = iota // read queue held full, write queue cycling through drains, random rows
	trClustered                     // 4-8 lines per row, overlapping partial write masks
	trForward                       // write->read same-line forwards and write merges
	trPhased                        // the three above separated by idle gaps
)

// schedGen is a deterministic traffic source plus the recorder of
// everything the controller did with it. It is a plain value apart from
// the controller and hash it points at, so a checkpoint test can fork it.
type schedGen struct {
	c    *Controller
	h    hash.Hash
	rng  uint64
	mode schedTraffic

	outstanding int
	nextID      uint64
	cmds        int64
	dirty       bool // a request was accepted or a command issued since the last checkIndex

	phase     int   // trPhased: index into the phase cycle
	phaseEnd  int64 // CPU cycle the current phase ends
	clusters  [3]schedCluster
	recent    [8]uint64 // ring of recently written addresses (trForward)
	recentLen int
	writes    int
}

type schedCluster struct {
	loc  Loc
	left int
}

func (g *schedGen) next() uint64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return g.rng
}

func (g *schedGen) put(vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		g.h.Write(buf[:])
	}
}

// attach streams every DRAM command of every channel into the hash.
func (g *schedGen) attach() {
	for i, cc := range g.c.chans {
		i := int64(i)
		cc.ch.Trace = func(e dram.CmdEvent) {
			g.cmds++
			g.dirty = true
			g.put(i, e.At, int64(e.Kind), int64(e.Rank), int64(e.Bank), int64(e.Row), int64(e.Mask), e.DataStart, e.DataEnd)
		}
	}
}

// done builds the completion for read id; the tag lets the request cross a
// checkpoint (resolve rebinds it on the restored side).
func (g *schedGen) done(id uint64) core.Done {
	return core.Done{
		Fn: func(at int64) {
			g.outstanding--
			g.put(-1, int64(id), at)
		},
		Tag: core.DoneTag{Kind: core.DoneFill, Serial: id},
	}
}

func (g *schedGen) read(addr uint64) {
	if g.c.Read(addr, g.done(g.nextID)) {
		g.outstanding++
		g.nextID++
		g.dirty = true
	}
}

func (g *schedGen) write(addr uint64) bool {
	ok := g.c.Write(addr, g.partialMask())
	g.dirty = g.dirty || ok
	return ok
}

// tick advances the controller one CPU cycle and re-verifies the scheduler
// index whenever the cycle could have changed it.
func (g *schedGen) tick(t *testing.T, cpu int64) {
	g.c.Tick(cpu)
	if g.dirty {
		checkIndex(t, g.c)
		g.dirty = false
	}
}

func (g *schedGen) partialMask() core.ByteMask {
	return core.StoreBytes(int(g.next()%8)*8, 8*(1+int(g.next()%3)))
}

func (g *schedGen) randomAddr() uint64 { return (g.next() % (4 << 30)) &^ 63 }

// step injects this CPU cycle's traffic (before the Tick).
func (g *schedGen) step(cpu int64) {
	mode := g.mode
	if mode == trPhased {
		if cpu >= g.phaseEnd {
			g.phase++
			span := int64(5000)
			if g.phase%2 == 1 { // idle gap: from too short to drain up to self-refresh territory
				span = 3000 + int64(g.next()%30000)
			}
			g.phaseEnd = cpu + span
		}
		if g.phase%2 == 1 {
			return
		}
		mode = schedTraffic(g.phase / 2 % 3)
	}
	switch mode {
	case trSaturate:
		// Reads outrun the channel (rejects counted); writes arrive at
		// about half its service rate, so the drain hysteresis keeps
		// switching the primary queue.
		if cpu%2 == 0 {
			g.read(g.randomAddr())
		} else if cpu%16 == 1 {
			g.write(g.randomAddr())
		}
	case trClustered:
		if cpu%4 != 0 {
			return
		}
		cl := &g.clusters[g.next()%uint64(len(g.clusters))]
		if cl.left == 0 {
			geom := g.c.cfg.Geom
			cl.loc = Loc{
				Channel: int(g.next() % uint64(g.c.cfg.Channels)),
				Rank:    int(g.next() % uint64(geom.Ranks)),
				Bank:    int(g.next() % uint64(geom.Banks)),
				Row:     int(g.next()%6) * 37, // small hot-row pool: conflicts and re-activations
			}
			cl.left = 4 + int(g.next()%5)
		}
		cl.left--
		cl.loc.Col = int(g.next() % uint64(g.c.cfg.Geom.LinesPerRow))
		addr := g.c.Mapper().Compose(cl.loc)
		if g.next()%5 < 2 {
			if g.outstanding < 60 {
				g.read(addr)
			}
		} else {
			g.write(addr)
		}
	case trForward:
		if cpu%3 != 0 {
			return
		}
		switch r := g.next() % 8; {
		case r < 3 || g.recentLen == 0: // fresh write, remembered
			addr := g.randomAddr()
			if g.write(addr) {
				g.recent[g.writes%len(g.recent)] = addr
				g.writes++
				g.recentLen = min(g.writes, len(g.recent))
			}
		case r < 5: // read a recently written line: forwards while it is queued
			g.read(g.recent[g.next()%uint64(g.recentLen)])
		case r < 6: // re-write it: merges while it is queued
			g.write(g.recent[g.next()%uint64(g.recentLen)])
		default: // background reads keep the writes waiting
			if g.outstanding < 40 {
				g.read(g.randomAddr())
			}
		}
	}
}

// run drives cycles CPU cycles of traffic from cpu on and returns the next
// cycle.
func (g *schedGen) run(t *testing.T, cpu, cycles int64) int64 {
	t.Helper()
	for end := cpu + cycles; cpu < end; cpu++ {
		g.step(cpu)
		g.tick(t, cpu)
	}
	return cpu
}

// drain ticks until the controller is empty.
func (g *schedGen) drain(t *testing.T, cpu int64) int64 {
	t.Helper()
	for limit := cpu + 8_000_000; g.c.Pending() && cpu < limit; cpu++ {
		g.tick(t, cpu)
	}
	if g.c.Pending() {
		t.Fatal("controller failed to drain")
	}
	return cpu
}

// finish folds the end-of-run statistics into the hash and renders the
// cell's golden line: the digest plus a few counters that show which paths
// the cell reached.
func (g *schedGen) finish(name string) string {
	s, d := g.c.Stats(), g.c.DeviceStats()
	fmt.Fprintf(g.h, "%+v\n%+v\n%+v\n", s, d, g.c.Energy())
	return fmt.Sprintf("%-28s %x cmds=%d rd=%d wr=%d acts=%d rej=%d/%d hit=%d/%d falsehit=%d/%d fwd=%d ref=%d alerts=%d pd=%d sr=%d",
		name, g.h.Sum(nil)[:12], g.cmds, s.ReadsServed, s.WritesServed, d.Activations(),
		s.ReadRejects, s.WriteRejects, s.RowHitRead, s.RowHitWrite, s.FalseHitRead, s.FalseHitWrite,
		s.Forwarded, d.Refreshes+d.PerBankRefreshes, s.Alerts, d.PowerDownCycles+d.ActivePDCycles, d.SelfRefEntries)
}

func newSchedGen(t *testing.T, cfg Config, mode schedTraffic, seed uint64) *schedGen {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &schedGen{c: c, h: sha256.New(), rng: seed*0x9E3779B97F4A7C15 + 1, mode: mode, phaseEnd: 5000}
	g.attach()
	return g
}

type schedCell struct {
	name   string
	mode   schedTraffic
	cycles int64
	mod    func(*Config)
}

func schedCells() []schedCell {
	var cells []schedCell
	for _, scheme := range Schemes() {
		for _, policy := range []Policy{RelaxedClose, RestrictedClose, OpenPage} {
			scheme, policy := scheme, policy
			cells = append(cells, schedCell{
				name: "sat/" + scheme.String() + "/" + policy.String(), mode: trSaturate, cycles: 60_000,
				mod: func(c *Config) {
					c.Scheme, c.Policy = scheme, policy
					if policy == RestrictedClose {
						c.Mapping = LineInterleaved
					}
				}})
		}
	}
	variants := []schedCell{
		{name: "clustered", mode: trClustered, cycles: 120_000, mod: func(*Config) {}},
		{name: "forward", mode: trForward, cycles: 120_000, mod: func(*Config) {}},
		{name: "restricted", mode: trClustered, cycles: 120_000, mod: func(c *Config) {
			c.Policy, c.Mapping = RestrictedClose, LineInterleaved
		}},
		{name: "4ch", mode: trPhased, cycles: 160_000, mod: func(c *Config) { c.Channels = 4 }},
		{name: "refpb", mode: trPhased, cycles: 200_000, mod: func(c *Config) { c.RefreshMode = RefreshPerBank }},
		{name: "elastic", mode: trPhased, cycles: 200_000, mod: func(c *Config) { c.RefreshMode = RefreshElastic }},
		{name: "pdtimed-sr", mode: trPhased, cycles: 200_000, mod: func(c *Config) {
			c.PDPolicy, c.PDTimeout, c.SRTimeout = PDTimed, 40, 1800
		}},
		{name: "pdqueue-elastic", mode: trPhased, cycles: 200_000, mod: func(c *Config) {
			c.PDPolicy, c.PDTimeout, c.SRTimeout, c.RefreshMode = PDQueueAware, 60, 2500, RefreshElastic
		}},
		{name: "openpage-apd", mode: trPhased, cycles: 160_000, mod: func(c *Config) {
			c.Policy, c.APD, c.PDPolicy, c.PDTimeout = OpenPage, true, PDTimed, 30
		}},
		{name: "mitigation", mode: trClustered, cycles: 160_000, mod: func(c *Config) {
			c.MitThreshold, c.MitAlertCycles = 5, 60
		}},
		{name: "latbreak", mode: trPhased, cycles: 160_000, mod: func(c *Config) {
			c.LatBreak, c.LatSpanEvery = true, 7
		}},
	}
	for _, scheme := range []Scheme{Baseline, PRA} {
		for _, v := range variants {
			scheme, v := scheme, v
			mod := v.mod
			v.name += "/" + scheme.String()
			v.mod = func(c *Config) { c.Scheme = scheme; mod(c) }
			cells = append(cells, v)
		}
	}
	return cells
}

// compareGolden checks got against testdata/name, rewriting it under
// -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d drifted:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s has %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestSchedulerCommandStreamGolden drives the controller directly with
// seeded traffic and hashes every DRAM command, every read completion and
// the final statistics of each cell. The cells reach the scheduler paths
// uniform random traffic does not: saturated queues with rejects, same-row
// clusters with overlapping partial masks (activation-mask unions, false
// hits, the hit cap, rows kept open for queued beneficiaries), forwards
// and merges, four channels, per-bank and elastic refresh, timed
// power-down with self-refresh escalation (where the cycles of idle
// scheduling passes are simulation-visible), mitigation, attribution.
func TestSchedulerCommandStreamGolden(t *testing.T) {
	t.Parallel()
	cells := schedCells()
	lines := make([]string, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, cell := range cells {
			i, cell := i, cell
			t.Run(cell.name, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cell.mod(&cfg)
				g := newSchedGen(t, cfg, cell.mode, uint64(i+1))
				g.drain(t, g.run(t, 0, cell.cycles))
				lines[i] = g.finish(cell.name)
			})
		}
	})
	compareGolden(t, "sched.golden", strings.Join(lines, "\n")+"\n")
}

// queueLens reports the read-queue, write-queue and forward-list lengths
// summed over channels, and the number of banks with queued requests.
func queueLens(c *Controller) (reads, writes, forwards, banks int) {
	for _, cc := range c.chans {
		reads += cc.n[core.Read]
		writes += cc.n[core.Write]
		forwards += len(cc.forwards)
		banks += bits.OnesCount64(cc.nonEmpty[core.Read] | cc.nonEmpty[core.Write])
	}
	return reads, writes, forwards, banks
}

// forkRestored copies generator g onto controller c, restored from a
// SaveState payload of g's own controller, with a hash of its own.
func forkRestored(t *testing.T, g *schedGen, c *Controller, saved []byte) *schedGen {
	t.Helper()
	g2 := *g
	g2.h, g2.c = sha256.New(), c
	g2.attach()
	rd := checkpoint.NewReader(saved)
	commit, err := c.RestoreState(rd, func(id uint64) (core.Done, bool) { return g2.done(id), true })
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
	commit()
	checkIndex(t, c)
	return &g2
}

// TestCheckpointQueueBytes pins the serialized form of populated queues:
// SaveState bytes at a mid-run point are golden (testdata/ckpt.golden),
// Save -> Restore -> Save is byte-equal, and the restored controller
// continues with exactly the command stream of the uninterrupted one.
func TestCheckpointQueueBytes(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.Scheme = PRA
	g := newSchedGen(t, cfg, trClustered, 99)
	cpu := g.run(t, 0, 30_001)
	// Land a forward pair so the forwards list is populated at the save
	// point (forwards complete at the channel's next DRAM tick).
	addr := g.randomAddr()
	if !g.write(addr) {
		t.Fatal("write rejected at the save point")
	}
	g.read(addr)
	if r, w, f, banks := queueLens(g.c); r < 8 || w < 8 || f != 1 || banks < 6 {
		t.Fatalf("save point not populated: %d reads, %d writes, %d forwards over %d banks", r, w, f, banks)
	}
	g.c.ResetStats() // checkpoints are taken right after ResetStats

	var w1 checkpoint.Writer
	g.c.SaveState(&w1)
	saved := append([]byte(nil), w1.Bytes()...)
	compareGolden(t, "ckpt.golden", fmt.Sprintf("%d bytes sha256 %x\n", len(saved), sha256.Sum256(saved)))

	// Fork the generator onto a fresh controller restored from the bytes.
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2 := forkRestored(t, g, fresh, saved)
	var w2 checkpoint.Writer
	g2.c.SaveState(&w2)
	if !bytes.Equal(saved, w2.Bytes()) {
		t.Fatal("Save -> Restore -> Save changed the bytes")
	}

	// Same traffic into both from here on; compare streams and statistics
	// (energy is not compared: accumulators are not part of a checkpoint).
	g.h = sha256.New()
	g.cmds, g2.cmds = 0, 0
	g.drain(t, g.run(t, cpu, 40_000))
	g2.drain(t, g2.run(t, cpu, 40_000))
	if g.cmds == 0 || g.cmds != g2.cmds || !bytes.Equal(g.h.Sum(nil), g2.h.Sum(nil)) {
		t.Errorf("restored command stream diverged: %d vs %d commands", g.cmds, g2.cmds)
	}
	if s1, s2 := fmt.Sprintf("%+v", g.c.Stats()), fmt.Sprintf("%+v", g2.c.Stats()); s1 != s2 {
		t.Errorf("restored statistics diverged:\n %s\n %s", s1, s2)
	}
}

// TestRestoreIntoUsedController restores one checkpoint into a fresh
// controller and into one that has run other traffic and still holds queued
// requests, open rows and cached scheduling decisions for them. Nothing of
// that may survive the restore: both must continue with the same command
// stream and end in the same SaveState bytes.
func TestRestoreIntoUsedController(t *testing.T) {
	t.Parallel()
	for _, policy := range []Policy{RelaxedClose, OpenPage} {
		cfg := DefaultConfig()
		cfg.Scheme, cfg.Policy = PRA, policy
		g := newSchedGen(t, cfg, trClustered, 41)
		cpu := g.run(t, 0, 20_001)
		var w checkpoint.Writer
		g.c.SaveState(&w)
		saved := append([]byte(nil), w.Bytes()...)

		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		used := newSchedGen(t, cfg, trSaturate, 7)
		used.run(t, 0, 9_000)
		if r, w, _, banks := queueLens(used.c); r < 8 || w < 2 || banks < 6 {
			t.Fatalf("used controller not populated: %d reads, %d writes over %d banks", r, w, banks)
		}
		var ends [2][]byte
		var sums [2][]byte
		for i, c := range []*Controller{fresh, used.c} {
			g2 := forkRestored(t, g, c, saved)
			g2.cmds = 0
			g2.drain(t, g2.run(t, cpu, 30_000))
			if g2.cmds == 0 {
				t.Fatal("no command after the restore")
			}
			var w checkpoint.Writer
			c.SaveState(&w)
			ends[i], sums[i] = w.Bytes(), g2.h.Sum(nil)
		}
		if !bytes.Equal(sums[0], sums[1]) {
			t.Errorf("%v: command stream after restoring into a used controller differs from a fresh one", policy)
		}
		if !bytes.Equal(ends[0], ends[1]) {
			t.Errorf("%v: SaveState bytes after restoring into a used controller differ from a fresh one", policy)
		}
	}
}
