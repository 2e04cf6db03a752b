package cpu

import (
	"testing"

	"pradram/internal/core"
)

// scriptGen replays a fixed op sequence, then pads with compute ops.
type scriptGen struct {
	ops []Op
	i   int
}

func (g *scriptGen) Next(op *Op) {
	if g.i < len(g.ops) {
		*op = g.ops[g.i]
		g.i++
		return
	}
	*op = Op{Kind: Compute}
}
func (g *scriptGen) Name() string { return "script" }

// fakeMem completes loads when told to; stores complete instantly unless
// refuseStores is set.
type fakeMem struct {
	loadDone     []func(at int64)
	refuseLoads  bool
	refuseStores bool
	loads        int
	stores       int
}

func (m *fakeMem) Load(coreID int, addr uint64, now int64, done core.Done) bool {
	if m.refuseLoads {
		return false
	}
	m.loads++
	m.loadDone = append(m.loadDone, done.Fn)
	return true
}

func (m *fakeMem) Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool {
	if m.refuseStores {
		return false
	}
	m.stores++
	done.Fn(now)
	return true
}

func (m *fakeMem) completeAll(at int64) {
	ds := m.loadDone
	m.loadDone = nil
	for _, d := range ds {
		d(at)
	}
}

func run(c *Core, cycles int) {
	for i := 0; i < cycles; i++ {
		c.Tick(int64(i))
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	bad := DefaultConfig()
	bad.ROB = 0
	if bad.Validate() == nil {
		t.Error("zero ROB must fail")
	}
	if _, err := New(0, bad, &scriptGen{}, &fakeMem{}); err == nil {
		t.Error("New must reject bad config")
	}
	if _, err := New(0, DefaultConfig(), nil, &fakeMem{}); err == nil {
		t.Error("New must reject nil generator")
	}
}

func TestComputeIPCReachesWidth(t *testing.T) {
	c, err := New(0, DefaultConfig(), &scriptGen{}, &fakeMem{})
	if err != nil {
		t.Fatal(err)
	}
	run(c, 1000)
	// Pure compute stream: IPC must approach the dispatch width.
	if ipc := float64(c.Retired) / float64(c.Cycles); ipc < 7.5 {
		t.Errorf("compute IPC = %.2f, want ~8", ipc)
	}
}

func TestLoadBlocksRetirementUntilComplete(t *testing.T) {
	mem := &fakeMem{}
	gen := &scriptGen{ops: []Op{{Kind: Load, Addr: 0x40}}}
	c, _ := New(0, DefaultConfig(), gen, mem)
	run(c, 50)
	// The load was dispatched but never completed: the ROB head blocks, so
	// retirement stops at the instructions ahead of it (none).
	if c.Retired != 0 {
		t.Errorf("retired %d with load outstanding, want 0", c.Retired)
	}
	mem.completeAll(50)
	run(c, 10)
	if c.Retired == 0 {
		t.Error("retirement must resume after the load completes")
	}
}

func TestROBFillsOnLongMiss(t *testing.T) {
	mem := &fakeMem{}
	gen := &scriptGen{ops: []Op{{Kind: Load, Addr: 0x40}}} // 1 load, rest compute
	cfg := DefaultConfig()
	c, _ := New(0, cfg, gen, mem)
	run(c, 1000)
	// With the head blocked, exactly ROB-entries can be in flight.
	if got := c.count; got != cfg.ROB {
		t.Errorf("ROB occupancy = %d, want %d (full)", got, cfg.ROB)
	}
}

func TestMLPIndependentLoads(t *testing.T) {
	mem := &fakeMem{}
	var ops []Op
	for i := 0; i < 16; i++ {
		ops = append(ops, Op{Kind: Load, Addr: uint64(i) * 64})
	}
	c, _ := New(0, DefaultConfig(), &scriptGen{ops: ops}, mem)
	run(c, 10)
	// Independent loads all issue without waiting for each other.
	if mem.loads != 16 {
		t.Errorf("issued %d loads, want 16 (MLP)", mem.loads)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	mem := &fakeMem{}
	ops := []Op{
		{Kind: Load, Addr: 0x40},
		{Kind: Load, Addr: 0x80, Dep: true},
		{Kind: Load, Addr: 0xC0, Dep: true},
	}
	c, _ := New(0, DefaultConfig(), &scriptGen{ops: ops}, mem)
	run(c, 20)
	if mem.loads != 1 {
		t.Fatalf("issued %d loads, want 1 (pointer chase serializes)", mem.loads)
	}
	mem.completeAll(20)
	run(c, 5)
	if mem.loads != 2 {
		t.Fatalf("after first completion, issued %d loads, want 2", mem.loads)
	}
	mem.completeAll(30)
	run(c, 5)
	if mem.loads != 3 {
		t.Errorf("after second completion, issued %d loads, want 3", mem.loads)
	}
}

func TestLDQBound(t *testing.T) {
	mem := &fakeMem{}
	cfg := DefaultConfig()
	cfg.LDQ = 4
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Kind: Load, Addr: uint64(i) * 64})
	}
	c, _ := New(0, cfg, &scriptGen{ops: ops}, mem)
	run(c, 10)
	if mem.loads != 4 {
		t.Errorf("issued %d loads, want 4 (LDQ bound)", mem.loads)
	}
}

func TestSTQBoundWithSlowStores(t *testing.T) {
	// Stores whose completion never arrives pile up in the STQ.
	mem := &fakeMem{}
	cfg := DefaultConfig()
	cfg.STQ = 2
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Kind: Store, Addr: uint64(i) * 64, Bytes: 0xFF})
	}
	slowMem := &stqFake{fakeMem: mem}
	c, _ := New(0, cfg, &scriptGen{ops: ops}, slowMem)
	run(c, 10)
	if slowMem.stores != 2 {
		t.Errorf("issued %d stores, want 2 (STQ bound)", slowMem.stores)
	}
}

// stqFake accepts stores but never completes them.
type stqFake struct {
	*fakeMem
	stores int
}

func (m *stqFake) Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool {
	m.stores++
	return true
}

func TestStoresRetireWithoutBlocking(t *testing.T) {
	mem := &fakeMem{}
	gen := &scriptGen{ops: []Op{{Kind: Store, Addr: 0x40, Bytes: 0xFF}}}
	c, _ := New(0, DefaultConfig(), gen, mem)
	run(c, 10)
	if c.Retired == 0 {
		t.Error("stores must not block retirement")
	}
	if c.Stores != 1 || mem.stores != 1 {
		t.Errorf("stores = %d/%d, want 1/1", c.Stores, mem.stores)
	}
}

func TestRefusedLoadRetries(t *testing.T) {
	mem := &fakeMem{refuseLoads: true}
	gen := &scriptGen{ops: []Op{{Kind: Load, Addr: 0x40}}}
	c, _ := New(0, DefaultConfig(), gen, mem)
	run(c, 5)
	if mem.loads != 0 {
		t.Fatal("load must be refused")
	}
	mem.refuseLoads = false
	run(c, 5)
	if mem.loads != 1 {
		t.Errorf("refused load must retry and issue exactly once, got %d", mem.loads)
	}
}

func TestOpCounters(t *testing.T) {
	mem := &fakeMem{}
	ops := []Op{
		{Kind: Load, Addr: 0x40},
		{Kind: Store, Addr: 0x80, Bytes: 1},
		{Kind: Compute},
	}
	c, _ := New(0, DefaultConfig(), &scriptGen{ops: ops}, mem)
	mem.completeAll(0)
	run(c, 5)
	mem.completeAll(5)
	run(c, 5)
	if c.Loads != 1 || c.Stores != 1 || c.ComputeOps < 1 {
		t.Errorf("counters loads=%d stores=%d compute=%d", c.Loads, c.Stores, c.ComputeOps)
	}
}
