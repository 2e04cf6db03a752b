// Package cpu models the processor side of the paper's baseline system
// (Table 3): 3.2 GHz, 8-wide out-of-order cores with a 192-entry ROB and
// 32/32-entry load/store queues. The model is deliberately ISA-free — what
// the DRAM study needs from the CPU is its memory-level parallelism and its
// latency/bandwidth sensitivity, both of which come from the windowed
// in-order-retire structure: instructions dispatch in order up to the issue
// width, loads complete when the hierarchy answers, dependent loads
// (pointer chases) cannot dispatch until the previous load returns, and the
// ROB stalls dispatch when full. IPC therefore responds to memory latency
// and bandwidth exactly the way the weighted-speedup metric needs.
package cpu

import (
	"fmt"

	"pradram/internal/core"
)

// OpKind classifies generated instructions.
type OpKind uint8

const (
	// Compute is a non-memory instruction: it completes at dispatch and
	// only occupies a ROB slot until it retires.
	Compute OpKind = iota
	// Load reads Op.Addr through the hierarchy and blocks retirement until
	// the hierarchy answers.
	Load
	// Store writes Op.Bytes of the line at Op.Addr; it retires at once and
	// holds a store-queue entry until the hierarchy completes it.
	Store
)

// Op is one instruction token from a workload generator.
type Op struct {
	Kind OpKind
	Addr uint64
	// Bytes is the dirty byte mask within the 64B line for stores.
	Bytes core.ByteMask
	// Dep marks a load whose address depends on the previous load's value
	// (pointer chasing): it cannot dispatch until that load completes.
	Dep bool
}

// Generator produces an infinite instruction stream for one core.
type Generator interface {
	Next(op *Op)
	Name() string
}

// MemPort is the cache hierarchy interface a core issues to. Both methods
// may refuse admission (MSHRs full); the core retries next cycle.
// Completions are tagged (core.Done) so components holding them can be
// checkpointed and the callbacks rebound on restore.
type MemPort interface {
	Load(coreID int, addr uint64, now int64, done core.Done) bool
	Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool
}

// Config sizes one core.
type Config struct {
	Width int // dispatch/retire width
	ROB   int
	LDQ   int
	STQ   int
}

// DefaultConfig returns the Table 3 core: 8-way, ROB 192, LDQ/STQ 32/32.
func DefaultConfig() Config { return Config{Width: 8, ROB: 192, LDQ: 32, STQ: 32} }

// Validate reports the first bad field.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.LDQ <= 0 || c.STQ <= 0 {
		return fmt.Errorf("cpu: all config fields must be positive: %+v", c)
	}
	return nil
}

// Core is one out-of-order core.
type Core struct {
	ID  int
	cfg Config
	gen Generator
	mem MemPort

	// The ROB is a ring of cfg.ROB slots held as parallel arrays. done[i]
	// is the slot's completion flag; serial[i] is the per-core dispatch
	// serial of the load last dispatched into it — the checkpoint identity
	// (core.DoneLoad tag) of the completion the hierarchy holds for it —
	// and is stale once a compute op or store reuses the slot; onDone[i]
	// is the slot's load-completion callback, built once in New. A slot is
	// only reused after its occupant retired, and a load retires only
	// after its callback ran, so a callback never lands on a new occupant.
	done       []bool
	serial     []uint64
	onDone     []func(at int64)
	head, tail int // ring indices; count tracks occupancy
	count      int

	ldqUsed int
	stqUsed int

	// loadSerial numbers load dispatches; each accepted load's ROB slot
	// records the serial it was issued under, giving every in-flight load
	// completion a stable identity across checkpoint save/restore.
	loadSerial uint64

	// lastSlot is the slot the most recent load — serial loadSerial-1 — was
	// dispatched into (-1 before the first). A dependent load waits while
	// that load is in flight: while the slot still holds its serial and is
	// not done. Once the load has retired the slot is either untouched
	// (done), reused by a compute op or store (done), or written by a load
	// attempt the hierarchy refused (serial loadSerial).
	lastSlot int

	pending    Op // a fetched but not yet dispatched op
	hasPending bool

	// storeDone is the shared store-completion callback (stores are not
	// tracked per entry, so one closure serves every store).
	storeDone func(at int64)

	// idle records that the last Tick neither retired nor dispatched
	// anything: every dispatch blocker (ROB full, pointer-chase wait,
	// LDQ/STQ full, hierarchy refusal) clears only through a completion
	// callback, so until one runs, further Ticks are provable no-ops.
	// The callbacks reset it, which is what lets NextEvent promise
	// quiescence between a blocked Tick and the next completion.
	idle bool

	// Retired counts retired instructions; Cycles counts Tick calls.
	Retired int64
	Cycles  int64
	// Loads/Stores/ComputeOps retired, for traffic sanity checks.
	Loads, Stores, ComputeOps int64
}

// New builds a core over a generator and memory port.
func New(id int, cfg Config, gen Generator, mem MemPort) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || mem == nil {
		return nil, fmt.Errorf("cpu: generator and memory port are required")
	}
	c := &Core{ID: id, cfg: cfg, gen: gen, mem: mem, lastSlot: -1,
		done: make([]bool, cfg.ROB), serial: make([]uint64, cfg.ROB), onDone: make([]func(int64), cfg.ROB)}
	c.storeDone = func(int64) {
		c.stqUsed--
		c.idle = false
	}
	for i := range c.onDone {
		c.onDone[i] = func(int64) {
			c.done[i] = true
			c.ldqUsed--
			c.idle = false
		}
	}
	return c, nil
}

// push enters the instruction bound to the tail slot into the ROB.
func (c *Core) push() {
	if c.tail++; c.tail == c.cfg.ROB {
		c.tail = 0 // branch instead of modulo: ROB size is not a power of two
	}
	c.count++
}

// ResetStats zeroes the retirement counters; pipeline state (ROB, queues,
// in-flight misses) is untouched. Used to exclude warmup from measurement.
func (c *Core) ResetStats() {
	c.Retired, c.Cycles = 0, 0
	c.Loads, c.Stores, c.ComputeOps = 0, 0, 0
}

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// Tick advances the core one CPU cycle: retire in order, then dispatch.
func (c *Core) Tick(now int64) {
	c.Cycles++
	retired := c.retire()
	dispatched := c.dispatch(now)
	c.idle = retired == 0 && dispatched == 0
}

// NextEvent reports the earliest CPU cycle at which the core's state can
// change: now+1 while it is making progress, FarFuture once a Tick came
// up empty (a blocked core stays blocked until a memory completion runs,
// and the completion callbacks clear idle themselves). Re-Ticking a
// quiescent core is always safe — skipped Ticks are exact no-ops (the
// only state a blocked Tick touches is the pre-fetched pending op, which
// is fetched at most once).
func (c *Core) NextEvent(now int64) int64 {
	if !c.idle {
		return now + 1
	}
	return core.FarFuture
}

// SkipCycles accounts n elapsed-but-unticked cycles, keeping Cycles (and
// IPC) on the elapsed-time clock when the run loop fast-forwards.
func (c *Core) SkipCycles(n int64) { c.Cycles += n }

// Quiescent reports whether the next Tick is a provable no-op (same
// condition that makes NextEvent return FarFuture): the run loop uses it
// to skip Ticking blocked cores on cycles other components force it to
// execute. A completion callback clears the condition.
func (c *Core) Quiescent() bool { return c.idle }

// retire retires up to Width completed instructions in order.
func (c *Core) retire() int {
	retired := 0
	for retired < c.cfg.Width && c.count > 0 && c.done[c.head] {
		if c.head++; c.head == c.cfg.ROB {
			c.head = 0
		}
		c.count--
		retired++
	}
	c.Retired += int64(retired)
	return retired
}

// loadInFlight reports whether the most recently dispatched load has not
// completed yet (the pointer-chase condition; see lastSlot).
func (c *Core) loadInFlight() bool {
	return c.lastSlot >= 0 && c.serial[c.lastSlot] == c.loadSerial-1 && !c.done[c.lastSlot]
}

// dispatch dispatches up to Width new instructions, returning how many
// actually entered the ROB.
func (c *Core) dispatch(now int64) int {
	n := 0
	for d := 0; d < c.cfg.Width; d++ {
		if c.count >= c.cfg.ROB {
			return n // ROB full
		}
		if !c.hasPending {
			c.gen.Next(&c.pending)
			c.hasPending = true
		}
		op := &c.pending
		switch op.Kind {
		case Compute:
			c.done[c.tail] = true
			c.push()
			c.ComputeOps++
		case Load:
			if op.Dep && c.loadInFlight() {
				return n // address not ready: pointer chase stalls dispatch
			}
			if c.ldqUsed >= c.cfg.LDQ {
				return n
			}
			// Bind the slot before the call: the port may complete the
			// load from inside it. A refusal leaves the free tail slot
			// with a serial no load owns.
			slot := c.tail
			c.done[slot], c.serial[slot] = false, c.loadSerial
			done := core.Done{Fn: c.onDone[slot], Tag: core.DoneTag{Kind: core.DoneLoad, Core: int32(c.ID), Serial: c.loadSerial}}
			if !c.mem.Load(c.ID, op.Addr, now, done) {
				return n // hierarchy refused; retry next cycle
			}
			c.lastSlot = slot
			c.loadSerial++
			c.ldqUsed++
			c.push()
			c.Loads++
		case Store:
			if c.stqUsed >= c.cfg.STQ {
				return n
			}
			done := core.Done{Fn: c.storeDone, Tag: core.DoneTag{Kind: core.DoneStore, Core: int32(c.ID)}}
			if !c.mem.Store(c.ID, op.Addr, op.Bytes, now, done) {
				return n
			}
			c.stqUsed++
			// Stores retire immediately (they drain from the store queue
			// in the background); the STQ bound models the backpressure.
			c.done[c.tail] = true
			c.push()
			c.Stores++
		}
		c.hasPending = false
		n++
	}
	return n
}

// Generator exposes the core's instruction generator (for checkpointing).
func (c *Core) Generator() Generator { return c.gen }
