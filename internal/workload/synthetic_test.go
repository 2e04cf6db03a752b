package workload

import (
	"sort"
	"testing"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
	"pradram/internal/cpu"
)

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticParams{
		{DirtyWords: 0},
		{DirtyWords: 9},
		{DirtyWords: 1, WriteProb: 1.5},
		{DirtyWords: 1, SeqFraction: -0.1},
		{DirtyWords: 1, ComputeGap: -1},
	}
	for i, p := range bad {
		if _, err := NewSynthetic(p); err == nil {
			t.Errorf("case %d: %+v must fail validation", i, p)
		}
	}
	if _, err := NewSynthetic(SyntheticParams{DirtyWords: 4, WriteProb: 0.5}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestSyntheticDirtyWordCount(t *testing.T) {
	for k := 1; k <= 8; k++ {
		mk, err := NewSynthetic(SyntheticParams{DirtyWords: k, WriteProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := mk(0, 1, testRegion())
		var op cpu.Op
		// Collect the stores of one visit and union their masks per line.
		// The final visit may be cut off mid-stream, so its line is
		// excluded from the assertion.
		perLine := map[uint64]core.ByteMask{}
		var lastLine uint64
		for i := 0; i < 4000; i++ {
			g.Next(&op)
			if op.Kind == cpu.Store {
				lastLine = op.Addr &^ 63
				perLine[lastLine] |= op.Bytes
			}
		}
		delete(perLine, lastLine)
		if len(perLine) == 0 {
			t.Fatalf("k=%d: no stores", k)
		}
		for addr, mask := range perLine {
			if got := mask.WordMask().Granularity(); got != k {
				t.Fatalf("k=%d: line %#x has %d dirty words", k, addr, got)
			}
		}
	}
}

func TestSyntheticWriteProbZero(t *testing.T) {
	mk, err := NewSynthetic(SyntheticParams{DirtyWords: 1, WriteProb: 0})
	if err != nil {
		t.Fatal(err)
	}
	g := mk(0, 1, testRegion())
	var op cpu.Op
	for i := 0; i < 2000; i++ {
		g.Next(&op)
		if op.Kind == cpu.Store {
			t.Fatal("WriteProb=0 must generate no stores")
		}
	}
}

func TestSyntheticSequentialFraction(t *testing.T) {
	mk, err := NewSynthetic(SyntheticParams{DirtyWords: 1, WriteProb: 0, SeqFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := mk(0, 1, testRegion())
	var op cpu.Op
	var prev uint64
	seq := 0
	loads := 0
	for i := 0; i < 3000; i++ {
		g.Next(&op)
		if op.Kind != cpu.Load {
			continue
		}
		loads++
		if prev != 0 && op.Addr == prev+128 {
			seq++
		}
		prev = op.Addr
	}
	// The first visit is random; everything after continues sequentially.
	if seq < loads-2 {
		t.Errorf("sequential loads = %d of %d", seq, loads)
	}
}

func TestSyntheticDeterministicPerCoreSeed(t *testing.T) {
	mk, _ := NewSynthetic(SyntheticParams{DirtyWords: 2, WriteProb: 0.5})
	a, b := mk(0, 7, testRegion()), mk(0, 7, testRegion())
	c := mk(1, 7, testRegion())
	var oa, ob, oc cpu.Op
	diverged := false
	for i := 0; i < 1000; i++ {
		a.Next(&oa)
		b.Next(&ob)
		c.Next(&oc)
		if oa != ob {
			t.Fatal("same core+seed must match")
		}
		if oa != oc {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different cores must diverge")
	}
}

// TestGeneratorCheckpointResumes saves every generator mid-stream — the
// apps of every workload set, and the synthetic microbenchmark — restores
// the bytes into a fresh instance from the same maker, and requires the
// next 10 000 ops of the two to agree: all mutable state must live in what
// SaveState writes.
func TestGeneratorCheckpointResumes(t *testing.T) {
	makers := map[string]Maker{}
	for _, set := range SetNames() {
		apps, err := Set(set, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			if _, err := New(app, 0, 1, testRegion()); err != nil {
				t.Fatal(err)
			}
			makers[app] = func(coreID int, seed uint64, region Region) cpu.Generator {
				g, _ := New(app, coreID, seed, region)
				return g
			}
		}
	}
	syn, err := NewSynthetic(SyntheticParams{DirtyWords: 3, WriteProb: 0.5, SeqFraction: 0.9, ComputeGap: 4})
	if err != nil {
		t.Fatal(err)
	}
	makers["synthetic"] = syn
	names := make([]string, 0, len(makers))
	for name := range makers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mk := makers[name]
		t.Run(name, func(t *testing.T) {
			orig := mk(1, 7, testRegion())
			var a, b cpu.Op
			for i := 0; i < 5_000; i++ {
				orig.Next(&a)
			}
			var w checkpoint.Writer
			orig.(checkpoint.Saver).SaveState(&w)
			restored := mk(1, 7, testRegion())
			rd := checkpoint.NewReader(w.Bytes())
			commit, err := restored.(checkpoint.Saver).RestoreState(rd)
			if err != nil {
				t.Fatal(err)
			}
			if err := rd.Done(); err != nil {
				t.Fatal(err)
			}
			commit()
			for i := 0; i < 10_000; i++ {
				orig.Next(&a)
				restored.Next(&b)
				if a != b {
					t.Fatalf("op %d after the restore: %+v, want %+v", i, b, a)
				}
			}
		})
	}
}
