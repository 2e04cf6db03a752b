package workload

import (
	"fmt"

	"pradram/internal/core"
	"pradram/internal/cpu"
)

// SyntheticParams parameterizes the controlled microbenchmark used by the
// sensitivity experiments: unlike the benchmark models, every knob is
// explicit, so sweeps isolate one variable at a time.
type SyntheticParams struct {
	// DirtyWords is how many 8-byte words each written line accumulates
	// before eviction (1..8) — the x-axis of the fundamental PRA curve.
	DirtyWords int
	// WriteProb is the probability a visited line is written at all.
	WriteProb float64
	// SeqFraction is the fraction of visits that continue sequentially
	// from the previous line (row locality knob); the rest are random.
	SeqFraction float64
	// ComputeGap is the number of compute ops between memory visits
	// (memory-intensity knob).
	ComputeGap int
	// RegionBytes bounds the working set (default 512MB: far beyond L2).
	RegionBytes uint64
}

// Validate reports the first bad parameter.
func (p SyntheticParams) Validate() error {
	switch {
	case p.DirtyWords < 1 || p.DirtyWords > core.WordsPerLine:
		return fmt.Errorf("workload: DirtyWords %d out of [1,8]", p.DirtyWords)
	case p.WriteProb < 0 || p.WriteProb > 1:
		return fmt.Errorf("workload: WriteProb %v out of [0,1]", p.WriteProb)
	case p.SeqFraction < 0 || p.SeqFraction > 1:
		return fmt.Errorf("workload: SeqFraction %v out of [0,1]", p.SeqFraction)
	case p.ComputeGap < 0:
		return fmt.Errorf("workload: negative ComputeGap")
	}
	return nil
}

// NewSynthetic returns a Maker for the parameterized microbenchmark.
// Use it through sim.Config.Generator.
func NewSynthetic(p SyntheticParams) (Maker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.RegionBytes == 0 {
		p.RegionBytes = 512 << 20
	}
	return func(coreID int, seed uint64, region Region) cpu.Generator {
		rng := NewRNG(mixSeed(fmt.Sprintf("synthetic-%d", p.DirtyWords), coreID, seed))
		area := region.sub(0, p.RegionBytes)
		g := newVisitGen("synthetic", rng, 1) // regs[0]: the previous line
		g.visit = func(g *visitGen) {
			addr := area.randLine(g.rng)
			if g.rng.Bool(p.SeqFraction) && g.regs[0] != 0 {
				addr = g.regs[0] + 128 // same-channel next line
				if addr >= area.Base+area.Bytes {
					addr = area.Base
				}
			}
			g.regs[0] = addr
			g.load(addr)
			g.compute(p.ComputeGap / 2)
			if g.rng.Bool(p.WriteProb) {
				// Dirty exactly DirtyWords distinct words, starting at a
				// random aligned word so masks vary across lines.
				start := g.rng.Intn(core.WordsPerLine)
				for w := 0; w < p.DirtyWords; w++ {
					g.store(addr, ((start+w)%core.WordsPerLine)*8, 8)
				}
			}
			g.compute(p.ComputeGap - p.ComputeGap/2)
		}
		return g
	}, nil
}
