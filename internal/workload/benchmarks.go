package workload

import "pradram/internal/cpu"

// Each benchmark model below states the behaviour it reproduces and the
// published characteristics it is calibrated against (Table 1 row-buffer
// hit rates and traffic split; Figure 3 dirty-word distribution). The
// models are behavioural, not functional: they generate the *address and
// store-mask stream* of the benchmark, not its computation.

// newGUPS models the GUPS (giga-updates per second) microbenchmark: random
// 8-byte read-modify-write updates into a huge table. Target: ~3%/1% R/W
// row hits, 53/47 traffic, one dirty word per line.
func newGUPS(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("GUPS", coreID, seed))
	table := region.sub(0, 512<<20)
	// regs[0]: previous update address (row-locality neighbor seed).
	g := newVisitGen("GUPS", rng, 1)
	g.visit = func(g *visitGen) {
		addr := table.randLine(g.rng)
		if g.rng.Bool(0.05) && g.regs[0] != 0 {
			// Occasional same-row neighbor (+128B stays on the same
			// channel under row interleaving): the paper's ~3% residual.
			addr = g.regs[0] + 128
			if addr >= table.Base+table.Bytes {
				addr = table.Base
			}
		}
		g.regs[0] = addr
		word := g.rng.Intn(8)
		g.load(addr)
		g.compute(2)
		g.store(addr, word*8, 8)
		g.compute(2)
	}
	return g
}

// newLinkedList models the pointer-chasing linked-list microbenchmark:
// serially dependent loads over randomly placed 64B nodes, with a payload
// update on roughly half the nodes. Target: ~4%/1% hits, 65/35 traffic,
// one dirty word.
func newLinkedList(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("LinkedList", coreID, seed))
	nodes := region.sub(0, 256<<20)
	// regs[0]: previous node address (adjacent-allocation seed).
	g := newVisitGen("LinkedList", rng, 1)
	g.visit = func(g *visitGen) {
		// Mostly random node placement; a small fraction of nodes were
		// allocated adjacently (the paper's ~4% residual row locality).
		addr := nodes.randLine(g.rng)
		if g.rng.Bool(0.08) && g.regs[0] != 0 {
			addr = g.regs[0] + 128 // same-channel neighbor line
			if addr >= nodes.Base+nodes.Bytes {
				addr = nodes.Base
			}
		}
		g.regs[0] = addr
		g.loadDep(addr) // follow the next pointer
		if g.rng.Bool(0.06) && addr+128 < nodes.Base+nodes.Bytes {
			// Fat node: the payload spills into the adjacent line, read
			// independently once the pointer line is fetched — the two
			// accesses queue together and the second row-hits (the
			// paper's ~4% read locality).
			g.load(addr + 128)
		}
		g.compute(3)
		if g.rng.Bool(0.6) {
			g.store(addr, 8, 8) // update payload word
		}
		g.compute(2)
	}
	return g
}

// newEm3d models Olden's em3d: electromagnetic wave propagation on a
// bipartite graph. Each visited node reads neighbor values through
// pointers and accumulates into its own value field. Target: ~5%/1% hits,
// 51/49 traffic, 1-2 dirty words.
func newEm3d(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("em3d", coreID, seed))
	graph := region.sub(0, 384<<20)
	// regs[0]: previous node address (consecutive-allocation seed).
	g := newVisitGen("em3d", rng, 1)
	g.visit = func(g *visitGen) {
		node := graph.randLine(g.rng)
		if g.rng.Bool(0.1) && g.regs[0] != 0 {
			node = g.regs[0] + 128 // nodes allocated consecutively in each list
			if node >= graph.Base+graph.Bytes {
				node = graph.Base
			}
		}
		g.regs[0] = node
		g.loadDep(node) // chase the node pointer
		if g.rng.Bool(0.08) && node+128 < graph.Base+graph.Bytes {
			// Gather the neighboring from-node of the same list, placed
			// on the adjacent line by the allocator; independent load.
			g.load(node + 128)
		}
		g.compute(2)
		// Accumulate into value (+ sometimes coefficient) of the node.
		g.store(node, 0, 8)
		if g.rng.Bool(0.3) {
			g.store(node, 8, 8)
		}
		g.compute(3)
	}
	return g
}

// newMcf models SPEC mcf: network-simplex optimization — a sequential scan
// of the arcs array interleaved with random node dereferences and 4-byte
// flow updates. Target: ~18%/1% hits, 79/21 traffic, one dirty word.
func newMcf(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("mcf", coreID, seed))
	arcs := region.sub(0, 256<<20)
	nodesR := region.sub(256<<20, 256<<20)
	g := newVisitGen("mcf", rng, 0)
	arcScan := g.stream(arcs, 1)
	g.visit = func(g *visitGen) {
		g.load(arcScan.next()) // sequential arc
		g.compute(2)
		n1 := nodesR.randLine(g.rng)
		n2 := nodesR.randLine(g.rng)
		g.load(n1) // tail node
		g.load(n2) // head node
		g.compute(3)
		if g.rng.Bool(0.8) {
			g.store(n1, g.rng.Intn(16)*4, 4) // 4-byte potential update
		}
		g.compute(3)
	}
	return g
}

// newOmnetpp models SPEC omnetpp: discrete event simulation — scanning the
// event heap (sequential) while touching message objects scattered across
// the heap (random) and updating their headers. Target: ~47%/2% hits,
// 71/29 traffic, 1-3 dirty words.
func newOmnetpp(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("omnetpp", coreID, seed))
	heap := region.sub(0, 64<<20)
	msgs := region.sub(64<<20, 384<<20)
	g := newVisitGen("omnetpp", rng, 0)
	heapScan := g.stream(heap, 1)
	g.visit = func(g *visitGen) {
		g.load(heapScan.next())
		g.load(heapScan.next())
		g.compute(3)
		m := msgs.randLine(g.rng)
		g.load(m)
		g.compute(2)
		if g.rng.Bool(0.9) {
			// Update the message header: timestamp + sometimes priority
			// and queue pointers.
			g.store(m, 0, 8)
			if g.rng.Bool(0.4) {
				g.store(m, 8, 8)
			}
			if g.rng.Bool(0.2) {
				g.store(m, 16, 8)
			}
		}
		g.compute(3)
	}
	return g
}

// newLibquantum models SPEC libquantum: streaming over the quantum
// register (an array of 16-byte nodes), toggling each node's state —
// sequential read-modify-write that eventually dirties whole lines — plus
// a slow read-only scan of the operator table. Target: ~73%/48% hits
// (bounded by the controller's 4-access row-hit cap), 66/34 traffic,
// mostly fully-dirty lines.
func newLibquantum(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("libquantum", coreID, seed))
	state := region.sub(0, 256<<20)
	ops := region.sub(256<<20, 128<<20)
	// regs[0]: current register-node index; regs[1]: current operator line.
	g := newVisitGen("libquantum", rng, 2)
	opScan := g.stream(ops, 1)
	g.visit = func(g *visitGen) {
		node := g.regs[0]
		line := state.Base + (node/4)*64
		if line >= state.Base+state.Bytes {
			node = 0
			line = state.Base
		}
		g.load(line)
		g.compute(1)
		g.store(line, int(node%4)*16, 16)
		// Operator table: re-read the current line, advancing every 4
		// node visits (so reads outnumber writebacks ~2:1 at DRAM).
		if node%4 == 0 {
			g.regs[1] = opScan.next()
		}
		g.load(g.regs[1])
		g.compute(2)
		g.regs[0] = node + 1
	}
	return g
}

// newLbm models SPEC lbm: a lattice-Boltzmann stencil sweep. Each cell
// update reads the source grid sequentially and scatters distribution
// values into the destination grid: the z-direction neighbors are adjacent
// (a sequential write substream) while the y/x-direction neighbors are a
// full grid-plane away (a write substream that crosses a DRAM row every
// store, giving writes the poor row locality the paper measures). Target:
// ~29%/18% hits, 57/43 traffic, ~2-4 dirty words per written line.
func newLbm(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("lbm", coreID, seed))
	src := region.sub(0, 128<<20)
	dstNear := region.sub(128<<20, 128<<20)
	dstFarY := region.sub(256<<20, 128<<20)
	dstFarX := region.sub(384<<20, 128<<20)
	// regs[0]: current cell counter.
	g := newVisitGen("lbm", rng, 1)
	srcScan := g.stream(src, 1)
	// 256 lines = one full DRAM row (128 lines x 2 channels): consecutive
	// far-plane writes land in consecutive rows of the same bank.
	farY := g.stream(dstFarY, 256)
	farX := g.stream(dstFarX, 256)
	g.visit = func(g *visitGen) {
		cell := g.regs[0]
		g.load(srcScan.next())
		g.compute(3)
		// z-neighbors: two 16B distribution pairs per adjacent line (the
		// line advances every other cell, accumulating 4 dirty words).
		nearAddr := dstNear.Base + ((cell/2)%dstNear.lines())*64
		g.store(nearAddr, int(cell%2)*32, 16)
		g.compute(1)
		// y/x-neighbors: 16-24B scatters one grid plane/column away.
		g.store(farY.next(), g.rng.Intn(5)*8, 24)
		g.store(farX.next(), g.rng.Intn(6)*8, 16)
		g.compute(3)
		g.regs[0] = cell + 1
	}
	return g
}

// newBzip2 models SPEC bzip2: block-sorting compression — compute-bound
// (the paper's one non-memory-intensive application) with a medium working
// set that partially fits the shared L2: sequential pointer-array scans
// plus random block-byte accesses, with small mixed-size updates. Target:
// low traffic overall, ~32%/1% hits, 69/31 traffic, mixed dirty words.
func newBzip2(coreID int, seed uint64, region Region) cpu.Generator {
	rng := NewRNG(mixSeed("bzip2", coreID, seed))
	block := region.sub(0, 128<<20)
	ptrs := region.sub(128<<20, 64<<20)
	g := newVisitGen("bzip2", rng, 0)
	ptrScan := g.stream(ptrs, 1)
	g.visit = func(g *visitGen) {
		g.compute(8)
		g.load(ptrScan.next())
		g.compute(4)
		b := block.randLine(g.rng)
		g.load(b)
		g.compute(4)
		if g.rng.Bool(0.8) {
			// Mixed-size updates: byte counters to full words.
			size := 1 << uint(g.rng.Intn(4)) // 1,2,4,8
			g.store(b, g.rng.Intn(64/size)*size, size)
		}
		if g.rng.Bool(0.25) {
			b2 := block.randLine(g.rng)
			g.load(b2)
			g.store(b2, g.rng.Intn(16)*4, 4)
		}
		g.compute(4)
	}
	return g
}
