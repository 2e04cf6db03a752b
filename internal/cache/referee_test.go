package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pradram/internal/core"
	"pradram/internal/cpu"
	"pradram/internal/workload"
)

// The hierarchy referee checks, reading only the raw tag and mask slabs and
// calling none of the hierarchy's lookup code, what the FGD write-back path
// must conserve: every dirty byte a store was accepted with reaches DRAM
// exactly once, in the write-back of its line that follows the store. It drives real workload generators through a
// backend that delays each fill by a random time, so misses merge several
// accesses, and after every event it also checks the two shape rules the
// conservation rests on: no L1 set holds a line twice, and every L1 line is
// in the L2 (inclusion).

// refereeFill is a fill the referee's backend holds until its cycle.
type refereeFill struct {
	at   int64
	done core.Done
}

// referee is the hierarchy's backend and checker.
type referee struct {
	t        testing.TB
	h        *Hierarchy
	rng      *rand.Rand
	maxDelay int
	now      int64
	fills    []refereeFill // sorted by at, equal cycles in arrival order
	// dirty holds, per line id, the OR of the store masks accepted for the
	// line since its previous write-back.
	dirty      map[uint64]core.ByteMask
	writebacks int
	failed     bool
}

// Read refuses one fill in eight, so fills are also retried, and holds an
// accepted one for 1 to maxDelay cycles.
func (r *referee) Read(_ uint64, done core.Done) bool {
	if r.rng.Intn(8) == 0 {
		return false
	}
	f := refereeFill{at: r.now + 1 + int64(r.rng.Intn(r.maxDelay)), done: done}
	i := sort.Search(len(r.fills), func(i int) bool { return r.fills[i].at > f.at })
	r.fills = append(r.fills, refereeFill{})
	copy(r.fills[i+1:], r.fills[i:])
	r.fills[i] = f
	return true
}

// Write accepts every write-back and checks its mask.
func (r *referee) Write(addr uint64, mask core.ByteMask) bool {
	id := addr / 64
	if want := r.dirty[id]; mask != want {
		r.failf("cycle %d: write-back of line %#x carries mask %#016x, but the stores accepted since its previous write-back dirtied %#016x (lost %#016x, invented %#016x)",
			r.now, id, uint64(mask), uint64(want), uint64(want&^mask), uint64(mask&^want))
	}
	delete(r.dirty, id)
	r.writebacks++
	return true
}

// stored records a store the hierarchy accepted: its own mask, or the one
// byte at addr when it carries none.
func (r *referee) stored(addr uint64, mask core.ByteMask) {
	if mask == 0 {
		mask = core.ByteMask(1) << (addr % 64)
	}
	r.dirty[addr/64] |= mask
}

func (r *referee) failf(format string, args ...any) {
	r.t.Helper()
	r.failed = true
	r.t.Errorf(format, args...)
}

// inL2 reports whether id is in the L2, from the raw set-major tag slab.
func (r *referee) inL2(id uint64) bool {
	l2 := r.h.l2
	set := int(id % uint64(r.h.cfg.L2Sets))
	for _, tag := range l2.tags[set*l2.ways : (set+1)*l2.ways] {
		if tag == id {
			return true
		}
	}
	return false
}

// check applies the shape rules after event.
func (r *referee) check(event string) {
	r.t.Helper()
	if r.failed {
		return
	}
	for c, l1 := range r.h.l1 {
		for set := 0; set < r.h.cfg.L1Sets; set++ {
			ways := l1.tags[set*l1.ways : (set+1)*l1.ways]
			for i, id := range ways {
				if id == invalidTag {
					continue
				}
				for _, other := range ways[i+1:] {
					if other == id {
						r.failf("cycle %d, after %s: core %d's L1 set %d holds line %#x twice", r.now, event, c, set, id)
						return
					}
				}
				if !r.inL2(id) {
					r.failf("cycle %d, after %s: line %#x is in core %d's L1 but not in the L2", r.now, event, id, c)
					return
				}
			}
		}
	}
}

// residentDirty returns the dirty bytes the hierarchy holds for line id:
// its L2 mask ORed with every L1 copy's.
func (r *referee) residentDirty(id uint64) core.ByteMask {
	var mask core.ByteMask
	for _, l := range append([]*level{r.h.l2}, r.h.l1...) {
		for i, tag := range l.tags {
			if tag == id {
				mask |= l.dirty[i]
			}
		}
	}
	return mask
}

// refereeRun drives apps (one generator per core, each in its own 1 GiB
// region) through a small hierarchy until n memory operations are accepted,
// then drains it and checks that every dirty byte not yet written back is
// still held for its line. It returns the number of checked write-backs.
func refereeRun(t testing.TB, apps []string, seed uint64, dbi bool, maxDelay, n int) int {
	cfg := Config{Cores: len(apps), L1Sets: 8, L1Ways: 4, L1Lat: 2, L2Sets: 64, L2Ways: 8, L2Lat: 20, MSHRs: 8}
	if dbi {
		cfg.DBI, cfg.RowKey = true, func(addr uint64) uint64 { return addr >> 13 }
	}
	r := &referee{t: t, rng: rand.New(rand.NewSource(int64(seed))), maxDelay: maxDelay, dirty: map[uint64]core.ByteMask{}}
	h, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	r.h = h
	gens := make([]cpu.Generator, len(apps))
	for c, app := range apps {
		if gens[c], err = workload.New(app, c, seed, workload.Region{Base: uint64(c) << 30, Bytes: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]cpu.Op, len(apps))
	nop := core.Untagged(func(int64) {})
	for accepted := 0; !r.failed; r.now++ {
		h.Tick(r.now)
		r.check("tick")
		for len(r.fills) > 0 && r.fills[0].at <= r.now {
			f := r.fills[0]
			r.fills = r.fills[1:]
			f.done.Fn(f.at)
			r.check(fmt.Sprintf("the fill of line %#x", f.done.Tag.Serial))
		}
		if accepted >= n {
			if len(r.fills)+len(h.mshr)+len(h.wbs)+h.queued() == 0 {
				break
			}
			continue
		}
		for c, g := range gens {
			op := &ops[c]
			for op.Kind == cpu.Compute {
				g.Next(op)
			}
			var ok bool
			if op.Kind == cpu.Store {
				if ok = h.Store(c, op.Addr, op.Bytes, r.now, nop); ok {
					r.stored(op.Addr, op.Bytes)
				}
			} else {
				ok = h.Load(c, op.Addr, r.now, nop)
			}
			r.check(fmt.Sprintf("core %d's access to line %#x", c, op.Addr/64))
			if ok {
				*op = cpu.Op{}
				accepted++
			}
		}
	}
	if r.failed {
		return r.writebacks
	}
	for id, want := range r.dirty {
		if got := r.residentDirty(id); got != want {
			r.failf("after the drain: line %#x holds dirty mask %#016x, but the stores accepted since its last write-back dirtied %#016x",
				id, uint64(got), uint64(want))
		}
	}
	return r.writebacks
}

// TestHierarchyReferee runs the referee over GUPS, libquantum and mcf on two
// to four cores and over MIX1, each with the DBI off and on.
func TestHierarchyReferee(t *testing.T) {
	for _, c := range []struct {
		set   string
		cores int
	}{{"GUPS", 2}, {"libquantum", 3}, {"mcf", 4}, {"MIX1", 4}} {
		apps, err := workload.Set(c.set, c.cores)
		if err != nil {
			t.Fatal(err)
		}
		for _, dbi := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dbi=%v", c.set, dbi), func(t *testing.T) {
				t.Parallel()
				if wbs := refereeRun(t, apps, 1, dbi, 200, 20_000); wbs < 100 && !t.Failed() {
					t.Errorf("vacuous run: %d write-backs checked", wbs)
				}
			})
		}
	}
}

// FuzzHierarchyReferee varies the seed, the workload set, the core count,
// the DBI and the longest fill delay.
func FuzzHierarchyReferee(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), false, uint16(200))
	f.Add(uint64(2), uint8(3), uint8(2), true, uint16(40))
	f.Fuzz(func(t *testing.T, seed uint64, set, cores uint8, dbi bool, maxDelay uint16) {
		name := []string{"GUPS", "libquantum", "mcf", "MIX1"}[set%4]
		n := 2 + int(cores%3)
		if name == "MIX1" {
			n = 4
		}
		apps, err := workload.Set(name, n)
		if err != nil {
			t.Fatal(err)
		}
		refereeRun(t, apps, seed, dbi, 1+int(maxDelay%1000), 3_000)
	})
}
