// Package workload provides synthetic instruction-stream generators that
// stand in for the paper's benchmarks (SPEC CPU2006 bzip2/lbm/libquantum/
// mcf/omnetpp, Olden em3d, and the GUPS and LinkedList microbenchmarks),
// which cannot be vendored here. Each generator is a small model of the
// benchmark's memory behaviour — working-set size, sequential-run
// structure, read/write mix, dependence chains, and store byte patterns —
// calibrated against the characteristics the paper publishes per benchmark:
// Table 1 (row-buffer hit rates, traffic split, activation split) and
// Figure 3 (dirty words per evicted line). The calibration is enforced by
// tests in the sim package.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
	"pradram/internal/cpu"
)

// Region is the private physical-address slab one core's workload instance
// lives in (the paper runs four identical single-threaded instances, i.e.
// SPEC "rate" style, so instances never share data).
type Region struct {
	Base  uint64
	Bytes uint64
}

// lines returns the region size in cache lines.
func (r Region) lines() uint64 { return r.Bytes / core.LineBytes }

// sub carves a sub-region of the given size at a line-aligned offset.
func (r Region) sub(offBytes, sizeBytes uint64) Region {
	if offBytes+sizeBytes > r.Bytes {
		sizeBytes = r.Bytes - offBytes
	}
	return Region{Base: r.Base + offBytes, Bytes: sizeBytes}
}

// randLine returns a random line-aligned address in the region.
func (r Region) randLine(rng *RNG) uint64 {
	return r.Base + uint64(rng.Intn(int(r.lines())))*core.LineBytes
}

// seqStream walks a region line by line with a configurable stride,
// wrapping at the end. It models the streaming arrays of libquantum, lbm,
// and the sequential phases of the SPEC integer codes.
type seqStream struct {
	region      Region
	pos         uint64 // line index within region
	strideLines uint64
}

func newSeqStream(r Region, strideLines uint64) *seqStream {
	if strideLines == 0 {
		strideLines = 1
	}
	return &seqStream{region: r, strideLines: strideLines}
}

// next returns the current line address and advances.
func (s *seqStream) next() uint64 {
	addr := s.region.Base + s.pos*core.LineBytes
	s.pos += s.strideLines
	if s.pos >= s.region.lines() {
		s.pos %= s.strideLines // keep substream phase when striding
		if s.strideLines == 1 {
			s.pos = 0
		}
	}
	return addr
}

// visitGen is the common machinery of all generators: a visit function
// refills an op queue, Next drains it one op at a time.
//
// All mutable benchmark state lives in the regs slice (scalar registers:
// previous addresses, cell counters) and the registered streams — never in
// visit-closure variables — so a generator's exact mid-run position
// serializes through SaveState/RestoreState for warmup checkpointing.
type visitGen struct {
	name  string
	rng   *RNG
	queue []cpu.Op
	head  int
	visit func(g *visitGen)

	regs    []uint64
	streams []*seqStream
}

var _ cpu.Generator = (*visitGen)(nil)
var _ checkpoint.Saver = (*visitGen)(nil)

// newVisitGen builds the shared machinery with nregs scalar registers.
func newVisitGen(name string, rng *RNG, nregs int) *visitGen {
	return &visitGen{name: name, rng: rng, regs: make([]uint64, nregs)}
}

// stream registers a sequential stream so its position checkpoints.
func (g *visitGen) stream(r Region, strideLines uint64) *seqStream {
	s := newSeqStream(r, strideLines)
	g.streams = append(g.streams, s)
	return s
}

// state states the generator's complete dynamic state once, in payload
// order: RNG position, the op queue with its drain cursor, scalar
// registers, and stream positions. Static structure (regions, strides, the
// visit function) is rebuilt by constructing the same benchmark from the
// same config, so it is not written.
func (g *visitGen) state(k *checkpoint.Codec) {
	k.U64(&g.rng.s)
	g.queue = checkpoint.Slice(k, g.queue, func(op *cpu.Op) { op.State(k) })
	k.Int(&g.head)
	if n := k.Len(len(g.regs)); n != len(g.regs) {
		k.Fail("workload %s: %d registers, want %d", g.name, n, len(g.regs))
		return
	}
	checkpoint.Words(k, g.regs)
	if n := k.Len(len(g.streams)); n != len(g.streams) {
		k.Fail("workload %s: %d streams, want %d", g.name, n, len(g.streams))
		return
	}
	for i, s := range g.streams {
		k.U64(&s.pos)
		if s.pos >= s.region.lines() {
			k.Fail("workload %s: stream %d position %d out of range", g.name, i, s.pos)
		}
	}
	if g.head < 0 || g.head > len(g.queue) {
		k.Fail("workload %s: queue head %d of %d", g.name, g.head, len(g.queue))
	}
}

// SaveState appends the generator's dynamic state.
func (g *visitGen) SaveState(w *checkpoint.Writer) { g.state(checkpoint.Saving(w)) }

// RestoreState decodes a SaveState payload into a copy of the generator
// and returns a commit that installs it; on error the generator is
// untouched. The visit closure holds the live RNG and streams, so the
// commit copies into them rather than replacing them.
func (g *visitGen) RestoreState(r *checkpoint.Reader) (func(), error) {
	t := *g
	t.rng, t.regs, t.streams = &RNG{}, make([]uint64, len(g.regs)), make([]*seqStream, len(g.streams))
	for i, s := range g.streams {
		t.streams[i] = &seqStream{region: s.region, strideLines: s.strideLines}
	}
	t.state(checkpoint.Restoring(r))
	if err := r.Err(); err != nil {
		return nil, err
	}
	return func() {
		*g.rng = *t.rng
		g.queue, g.head = t.queue, t.head
		copy(g.regs, t.regs)
		for i, s := range g.streams {
			*s = *t.streams[i]
		}
	}, nil
}

func (g *visitGen) Name() string { return g.name }

func (g *visitGen) Next(op *cpu.Op) {
	for g.head >= len(g.queue) {
		g.queue = g.queue[:0]
		g.head = 0
		g.visit(g)
	}
	*op = g.queue[g.head]
	g.head++
}

func (g *visitGen) compute(n int) {
	for i := 0; i < n; i++ {
		g.queue = append(g.queue, cpu.Op{Kind: cpu.Compute})
	}
}

func (g *visitGen) load(addr uint64) {
	g.queue = append(g.queue, cpu.Op{Kind: cpu.Load, Addr: addr})
}

func (g *visitGen) loadDep(addr uint64) {
	g.queue = append(g.queue, cpu.Op{Kind: cpu.Load, Addr: addr, Dep: true})
}

// store emits a store of size bytes at byte offset off within addr's line.
func (g *visitGen) store(addr uint64, off, size int) {
	line := addr &^ (core.LineBytes - 1)
	g.queue = append(g.queue, cpu.Op{
		Kind:  cpu.Store,
		Addr:  line + uint64(off),
		Bytes: core.StoreBytes(off, size),
	})
}

// Maker builds a generator instance for one core.
type Maker func(coreID int, seed uint64, region Region) cpu.Generator

var benchmarks = map[string]Maker{
	"bzip2":      newBzip2,
	"lbm":        newLbm,
	"libquantum": newLibquantum,
	"mcf":        newMcf,
	"omnetpp":    newOmnetpp,
	"em3d":       newEm3d,
	"GUPS":       newGUPS,
	"LinkedList": newLinkedList,
}

// Names returns the benchmark names in sorted order.
func Names() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Canonical resolves a workload, hammer, or mix name case-insensitively to
// its canonical spelling ("gups" -> "GUPS", "mix2" -> "MIX2"), so CLI
// flags don't require the paper's exact capitalization. Unknown names are
// returned unchanged for the caller's own error path.
func Canonical(name string) string {
	if strings.ContainsAny(name, ":,") {
		if entries, err := parseMixSpec(name); err == nil {
			return renderMixSpec(entries)
		}
		return name
	}
	if _, ok := benchmarks[name]; ok {
		return name
	}
	if _, ok := hammers[name]; ok {
		return name
	}
	if _, ok := tensors[name]; ok {
		return name
	}
	if _, ok := Mixes[name]; ok {
		return name
	}
	for n := range benchmarks {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	for n := range hammers {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	for n := range tensors {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	for n := range Mixes {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	return name
}

// New builds the named benchmark, hammer, or tensor generator.
func New(name string, coreID int, seed uint64, region Region) (cpu.Generator, error) {
	mk, ok := benchmarks[Canonical(name)]
	if !ok {
		mk, ok = hammers[Canonical(name)]
	}
	if !ok {
		mk, ok = tensors[Canonical(name)]
	}
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name,
			append(append(Names(), HammerNames()...), TensorNames()...))
	}
	if region.Bytes < 1<<24 {
		return nil, fmt.Errorf("workload: region too small (%d bytes); need at least 16MB", region.Bytes)
	}
	return mk(coreID, seed, region), nil
}

// Mixes are the multiprogrammed workloads of Table 4.
var Mixes = map[string][]string{
	"MIX1": {"bzip2", "lbm", "libquantum", "omnetpp"},
	"MIX2": {"mcf", "em3d", "GUPS", "LinkedList"},
	"MIX3": {"bzip2", "mcf", "lbm", "em3d"},
	"MIX4": {"libquantum", "GUPS", "omnetpp", "LinkedList"},
	"MIX5": {"bzip2", "LinkedList", "lbm", "GUPS"},
	"MIX6": {"libquantum", "em3d", "omnetpp", "mcf"},
}

// MixNames returns the mix names in order.
func MixNames() []string {
	return []string{"MIX1", "MIX2", "MIX3", "MIX4", "MIX5", "MIX6"}
}

// soloMaker reports whether name (already canonical) resolves to a
// single-core generator in any registry.
func soloMaker(name string) bool {
	if _, ok := benchmarks[name]; ok {
		return true
	}
	if _, ok := hammers[name]; ok {
		return true
	}
	_, ok := tensors[name]
	return ok
}

// mixEntry is one parsed component of a custom mix spec.
type mixEntry struct {
	name  string
	count int
}

// parseMixSpec parses a SPEC-rate-style co-run spec — comma-separated
// `name[:count]` entries, e.g. "gups:2,linkedlist:2" — into canonical
// entries. Every name must be a single-core generator (benchmark, hammer,
// or tensor); nesting mixes is rejected.
func parseMixSpec(spec string) ([]mixEntry, error) {
	parts := strings.Split(spec, ",")
	entries := make([]mixEntry, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		name, countStr, hasCount := strings.Cut(part, ":")
		e := mixEntry{name: Canonical(strings.TrimSpace(name)), count: 1}
		if !soloMaker(e.name) {
			return nil, fmt.Errorf("workload: mix component %q is not a benchmark, hammer, or tensor generator", name)
		}
		if hasCount {
			n, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil || n < 1 || n > 1024 {
				return nil, fmt.Errorf("workload: bad instance count %q in mix spec %q", countStr, spec)
			}
			e.count = n
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// renderMixSpec is parseMixSpec's inverse: the one canonical spelling of
// a custom mix (":1" elided), so run keys and warmup fingerprints are
// stable across equivalent user spellings.
func renderMixSpec(entries []mixEntry) string {
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.name)
		if e.count != 1 {
			fmt.Fprintf(&b, ":%d", e.count)
		}
	}
	return b.String()
}

// Set resolves a workload-set name to one benchmark per core: a
// benchmark, hammer, or tensor name yields n identical instances (the
// paper's "four identical instances of single-threaded applications"); a
// MIXn name yields Table 4's combination; a custom `name[:count],...`
// spec assigns workloads per core in order, and its instance counts must
// sum to exactly the core count.
func Set(name string, cores int) ([]string, error) {
	name = Canonical(name)
	if strings.ContainsAny(name, ":,") {
		entries, err := parseMixSpec(name)
		if err != nil {
			return nil, err
		}
		apps := make([]string, 0, cores)
		for _, e := range entries {
			for i := 0; i < e.count; i++ {
				apps = append(apps, e.name)
			}
		}
		if len(apps) != cores {
			return nil, fmt.Errorf("workload: mix spec %q names %d instances, have %d cores", name, len(apps), cores)
		}
		return apps, nil
	}
	if apps, ok := Mixes[name]; ok {
		if cores != len(apps) {
			return nil, fmt.Errorf("workload: mix %s needs %d cores, have %d", name, len(apps), cores)
		}
		return apps, nil
	}
	if !soloMaker(name) {
		return nil, fmt.Errorf("workload: unknown workload set %q (have %v)", name, SetNames())
	}
	apps := make([]string, cores)
	for i := range apps {
		apps[i] = name
	}
	return apps, nil
}

// SetNames returns all runnable workload-set names, regenerated from the
// registries: 8 benchmarks (x4 instances) + 4 hammer patterns + 3 tensor
// streams + 6 mixes. Custom `name[:count],...` specs compose any of the
// single-core names.
func SetNames() []string {
	return append(append(append(Names(), HammerNames()...), TensorNames()...), MixNames()...)
}

func mixSeed(name string, coreID int, seed uint64) uint64 {
	h := seed ^ 0x51_7C_C1_B7_27_22_0A_95
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return h ^ (uint64(coreID+1) * 0x9E3779B97F4A7C15)
}
