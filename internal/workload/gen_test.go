package workload

import (
	"strings"
	"testing"

	"pradram/internal/core"
	"pradram/internal/cpu"
)

func testRegion() Region { return Region{Base: 0, Bytes: 1 << 30} }

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should diverge")
	}
	// Seed 0 is remapped, not degenerate.
	z := NewRNG(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("seed 0 must not be degenerate")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	// Bool(1) is always true, Bool(0) always false.
	if !r.Bool(1.0) || r.Bool(0.0) {
		t.Error("Bool boundary behaviour wrong")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"GUPS", "LinkedList", "bzip2", "em3d", "lbm", "libquantum", "mcf", "omnetpp"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("benchmarks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestNewRejectsUnknownAndSmallRegion(t *testing.T) {
	if _, err := New("nosuch", 0, 1, testRegion()); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := New("GUPS", 0, 1, Region{Bytes: 1 << 20}); err == nil {
		t.Error("tiny region must error")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range Names() {
		g1, err := New(name, 0, 99, testRegion())
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := New(name, 0, 99, testRegion())
		var o1, o2 cpu.Op
		for i := 0; i < 2000; i++ {
			g1.Next(&o1)
			g2.Next(&o2)
			if o1 != o2 {
				t.Fatalf("%s: op %d diverges: %+v vs %+v", name, i, o1, o2)
			}
		}
		g3, _ := New(name, 1, 99, testRegion())
		diverged := false
		for i := 0; i < 2000; i++ {
			g1.Next(&o1)
			g3.Next(&o2)
			if o1 != o2 {
				diverged = true
				break
			}
		}
		if !diverged && name != "libquantum" && name != "lbm" {
			// Pure streaming benchmarks may legitimately match; the
			// stochastic ones must not.
			t.Errorf("%s: different cores must see different streams", name)
		}
	}
}

func TestAddressesStayInRegion(t *testing.T) {
	region := Region{Base: 2 << 30, Bytes: 1 << 30}
	for _, name := range Names() {
		g, err := New(name, 0, 5, region)
		if err != nil {
			t.Fatal(err)
		}
		var op cpu.Op
		for i := 0; i < 20000; i++ {
			g.Next(&op)
			if op.Kind == cpu.Compute {
				continue
			}
			if op.Addr < region.Base || op.Addr >= region.Base+region.Bytes {
				t.Fatalf("%s: address %#x outside region [%#x, %#x)", name, op.Addr, region.Base, region.Base+region.Bytes)
			}
		}
	}
}

func TestStoreMasksValid(t *testing.T) {
	for _, name := range Names() {
		g, _ := New(name, 0, 5, testRegion())
		var op cpu.Op
		stores := 0
		for i := 0; i < 20000 && stores < 100; i++ {
			g.Next(&op)
			if op.Kind != cpu.Store {
				continue
			}
			stores++
			if op.Bytes == 0 {
				t.Fatalf("%s: store with empty byte mask", name)
			}
			// The mask must cover the addressed offset.
			off := int(op.Addr & 63)
			if op.Bytes&(core.ByteMask(1)<<uint(off)) == 0 {
				t.Fatalf("%s: store mask %v does not cover offset %d", name, op.Bytes, off)
			}
		}
		if stores == 0 {
			t.Errorf("%s: no stores generated", name)
		}
	}
}

// Rough op-mix sanity: every benchmark generates loads, and the paper's
// compute-bound outlier (bzip2) is markedly less memory-intensive.
func TestMemoryIntensityOrdering(t *testing.T) {
	intensity := func(name string) float64 {
		g, _ := New(name, 0, 5, testRegion())
		var op cpu.Op
		mem := 0
		const n = 50000
		for i := 0; i < n; i++ {
			g.Next(&op)
			if op.Kind != cpu.Compute {
				mem++
			}
		}
		return float64(mem) / n
	}
	bzip := intensity("bzip2")
	for _, name := range []string{"GUPS", "libquantum", "lbm", "mcf", "em3d", "LinkedList"} {
		if got := intensity(name); got <= bzip {
			t.Errorf("%s intensity %.2f must exceed bzip2's %.2f", name, got, bzip)
		}
	}
}

func TestPointerChasersEmitDependentLoads(t *testing.T) {
	for _, name := range []string{"LinkedList", "em3d"} {
		g, _ := New(name, 0, 5, testRegion())
		var op cpu.Op
		deps := 0
		for i := 0; i < 5000; i++ {
			g.Next(&op)
			if op.Kind == cpu.Load && op.Dep {
				deps++
			}
		}
		if deps == 0 {
			t.Errorf("%s must emit dependent loads", name)
		}
	}
}

func TestSeqStreamWraps(t *testing.T) {
	r := Region{Base: 0, Bytes: 4 * 64}
	s := newSeqStream(r, 1)
	seen := map[uint64]int{}
	for i := 0; i < 8; i++ {
		seen[s.next()]++
	}
	if len(seen) != 4 {
		t.Errorf("stream visited %d lines, want 4", len(seen))
	}
	for a, c := range seen {
		if c != 2 {
			t.Errorf("line %#x visited %d times, want 2", a, c)
		}
	}
	// Zero stride is coerced to 1.
	s2 := newSeqStream(r, 0)
	if s2.next() == s2.next() {
		t.Error("zero-stride stream must still advance")
	}
}

func TestMixesAndSets(t *testing.T) {
	if len(MixNames()) != 6 {
		t.Fatal("six mixes expected (Table 4)")
	}
	for _, m := range MixNames() {
		apps, err := Set(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(apps) != 4 {
			t.Errorf("%s has %d apps, want 4", m, len(apps))
		}
		for _, a := range apps {
			if _, err := New(a, 0, 1, testRegion()); err != nil {
				t.Errorf("%s references unknown app %s", m, a)
			}
		}
	}
	// MIX1 must match Table 4.
	apps, _ := Set("MIX1", 4)
	want := []string{"bzip2", "lbm", "libquantum", "omnetpp"}
	for i := range want {
		if apps[i] != want[i] {
			t.Errorf("MIX1[%d] = %s, want %s", i, apps[i], want[i])
		}
	}
	// A benchmark name replicates across cores.
	apps, err := Set("GUPS", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		if a != "GUPS" {
			t.Error("single-benchmark set must replicate")
		}
	}
	if _, err := Set("MIX1", 2); err == nil {
		t.Error("mix with wrong core count must error")
	}
	if _, err := Set("nosuch", 4); err == nil {
		t.Error("unknown set must error")
	}
	if got := len(SetNames()); got != 21 {
		t.Errorf("SetNames() has %d entries, want 21 (8 benchmarks + 4 hammers + 3 tensors + 6 mixes)", got)
	}
	if h, x := len(HammerNames()), len(TensorNames()); h != 4 || x != 3 {
		t.Errorf("%d hammers and %d tensors, want 4 and 3", h, x)
	}
	// The Set error message enumerates the registry, not a stale list.
	if _, err := Set("nosuch", 4); err == nil || !strings.Contains(err.Error(), "HammerSingle") {
		t.Errorf("Set error must enumerate registry names, got %v", err)
	}
}

func TestDirtyProfile(t *testing.T) {
	for _, name := range Names() {
		lo, hi, err := DirtyProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		if lo < 1 || hi > 8 || lo > hi {
			t.Errorf("%s: profile [%d,%d] out of range", name, lo, hi)
		}
	}
	if _, _, err := DirtyProfile("nosuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
}
