package main

import (
	"fmt"

	"pradram/internal/cache"
	"pradram/internal/core"
	"pradram/internal/cpu"
	"pradram/internal/memctrl"
	"pradram/internal/power"
	"pradram/internal/sim"
	"pradram/internal/workload"
)

// replica is sim.System rebuilt from the packages' exported constructors,
// with a span recorded at every boundary between two layers. It exists
// because the per-layer numbers must be taken from outside the program:
// the run loop below is a copy of sim.System.Warmup/Measure/fastForward
// and must track them. What licenses calling it "the same run" is checked,
// not assumed: its Result must hash to the digest of the untraced run.
//
// It covers what the scenarios use (scheme, relaxed-close policy, channel
// count, active cores, custom generator); a scenario that sets another
// knob fails the digest check rather than silently diverging.
type replica struct {
	cfg   sim.Config
	ctrl  *memctrl.Controller
	hier  *cache.Hierarchy
	cores []*cpu.Core
	apps  []string
	tr    *tracer

	port    *portSpan
	backend *backendSpan

	loopCounters
	warm loopCounters // their values at the warmup boundary
}

// loopCounters count what the run loop did.
type loopCounters struct {
	cycle, ticks, skipped int64
	quiescent             int64    // core ticks stood in for by SkipCycles(1)
	ffJumps               int64    // fast-forwards that moved the clock
	ffBound               [3]int64 // jumps whose target came from cpu / cache / memctrl
	ffBlockedCPU          int64    // fast-forwards a core vetoed by answering now+1
}

// measured returns the counters of the measured window alone. Like the
// simulated statistics they leave warmup out: that is where a resident
// working set takes its cold misses.
func (r *replica) measured() loopCounters {
	m, w := r.loopCounters, r.warm
	m.cycle -= w.cycle
	m.ticks -= w.ticks
	m.skipped -= w.skipped
	m.quiescent -= w.quiescent
	m.ffJumps -= w.ffJumps
	m.ffBlockedCPU -= w.ffBlockedCPU
	for i := range m.ffBound {
		m.ffBound[i] -= w.ffBound[i]
	}
	return m
}

// genSpan times a core's calls into its workload generator.
type genSpan struct {
	cpu.Generator
	tr *tracer
}

func (g genSpan) Next(op *cpu.Op) {
	g.tr.begin(kGenNext)
	g.Generator.Next(op)
	g.tr.end()
}

// portSpan times the cores' calls into the cache hierarchy.
type portSpan struct {
	cpu.MemPort
	tr      *tracer
	rejects int64
}

func (p *portSpan) Load(coreID int, addr uint64, now int64, done core.Done) bool {
	p.tr.begin(kAccess)
	ok := p.MemPort.Load(coreID, addr, now, done)
	p.tr.end()
	if !ok {
		p.rejects++
	}
	return ok
}

func (p *portSpan) Store(coreID int, addr uint64, mask core.ByteMask, now int64, done core.Done) bool {
	p.tr.begin(kAccess)
	ok := p.MemPort.Store(coreID, addr, mask, now, done)
	p.tr.end()
	if !ok {
		p.rejects++
	}
	return ok
}

// backendSpan times the hierarchy's calls into the controller, and the
// fill completions the controller later runs from inside its own Tick.
type backendSpan struct {
	cache.Backend
	tr      *tracer
	rejects int64
}

func (b *backendSpan) Read(addr uint64, done core.Done) bool {
	fill := done.Fn
	done.Fn = func(at int64) { // the tag is kept, so the completion stays identifiable
		b.tr.begin(kFill)
		fill(at)
		b.tr.end()
	}
	b.tr.begin(kEnqueue)
	ok := b.Backend.Read(addr, done)
	b.tr.end()
	if !ok {
		b.rejects++
	}
	return ok
}

func (b *backendSpan) Write(addr uint64, dirty core.ByteMask) bool {
	b.tr.begin(kEnqueue)
	ok := b.Backend.Write(addr, dirty)
	b.tr.end()
	if !ok {
		b.rejects++
	}
	return ok
}

// newReplica assembles the system the way sim.New does.
func newReplica(cfg sim.Config, tr *tracer) (*replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ActiveCores == 0 {
		cfg.ActiveCores = cfg.Cores
	}
	cfg.Workload = workload.Canonical(cfg.Workload)

	mcfg := memctrl.DefaultConfig()
	mcfg.Scheme = cfg.Scheme
	mcfg.Policy = cfg.Policy
	mcfg.Mapping = memctrl.RowInterleaved
	if cfg.Channels > 0 {
		mcfg.Channels = cfg.Channels
	}
	ctrl, err := memctrl.New(mcfg)
	if err != nil {
		return nil, err
	}
	r := &replica{cfg: cfg, ctrl: ctrl, tr: tr}
	r.backend = &backendSpan{Backend: ctrl, tr: tr}

	ccfg := cache.DefaultConfig(cfg.ActiveCores)
	ccfg.RowKey = ctrl.RowKey
	if r.hier, err = cache.New(ccfg, r.backend); err != nil {
		return nil, err
	}
	r.port = &portSpan{MemPort: r.hier, tr: tr}

	if cfg.Generator != nil {
		r.apps = make([]string, cfg.ActiveCores)
		for i := range r.apps {
			r.apps[i] = cfg.Workload
		}
	} else {
		if r.apps, err = workload.Set(cfg.Workload, cfg.Cores); err != nil {
			return nil, err
		}
		r.apps = r.apps[:cfg.ActiveCores]
	}
	for i, app := range r.apps {
		region := workload.Region{Base: uint64(i) << 30, Bytes: 1 << 30}
		var gen cpu.Generator
		if cfg.Generator != nil {
			gen = cfg.Generator(i, cfg.Seed, region)
		} else if gen, err = workload.New(app, i, cfg.Seed, region); err != nil {
			return nil, err
		}
		c, err := cpu.New(i, cfg.CPU, genSpan{gen, tr}, r.port)
		if err != nil {
			return nil, err
		}
		r.cores = append(r.cores, c)
	}
	return r, nil
}

// phase runs until every core has retired target instructions and returns
// each core's finish time in cycles since the phase began.
func (r *replica) phase(target int64) ([]int64, error) {
	maxTicks := (r.cfg.InstrPerCore+r.cfg.WarmupPerCore)*2000 + 10_000_000
	finish := make([]int64, len(r.cores))
	for i := range finish {
		finish[i] = -1
	}
	remaining := len(r.cores)
	start := r.cycle
	tr := r.tr
	for remaining > 0 {
		if r.ticks >= maxTicks {
			return nil, fmt.Errorf("replica: no progress after %d executed ticks (cycle %d)", r.ticks, r.cycle)
		}
		r.ticks++
		tr.tick()
		tr.begin(kLoop)
		tr.begin(kCacheTick)
		r.hier.Tick(r.cycle)
		tr.end()
		for i, c := range r.cores {
			if c.Quiescent() {
				c.SkipCycles(1)
				r.quiescent++
				continue
			}
			tr.begin(kCPUTick)
			c.Tick(r.cycle)
			tr.end()
			if finish[i] < 0 && c.Retired >= target {
				finish[i] = r.cycle - start + 1
				remaining--
			}
		}
		tr.begin(kCtrlTick)
		r.ctrl.Tick(r.cycle)
		tr.end()
		r.cycle++
		if remaining > 0 {
			tr.begin(kFastForward)
			next, err := r.fastForward(r.cycle)
			tr.end()
			if err != nil {
				return nil, err
			}
			r.cycle = next
		}
		tr.end()
		if tr.armed {
			tr.fold()
		}
	}
	tr.armed = false
	return finish, nil
}

// fastForward mirrors sim.System.fastForward and notes which component's
// bound decided each jump.
func (r *replica) fastForward(next int64) (int64, error) {
	now := next - 1
	target := int64(core.FarFuture)
	bound := -1
	for _, c := range r.cores {
		if t := c.NextEvent(now); t < target {
			if t <= next {
				r.ffBlockedCPU++
				return next, nil
			}
			target, bound = t, 0
		}
	}
	if t := r.hier.NextEvent(now); t < target {
		target, bound = t, 1
	}
	r.tr.begin(kCtrlNextEvent)
	t := r.ctrl.NextEvent(now)
	r.tr.end()
	if t < target {
		target, bound = t, 2
	}
	if target >= core.FarFuture {
		return 0, fmt.Errorf("replica: no progress possible: all components quiescent at cycle %d", now)
	}
	if target <= next {
		return next, nil
	}
	r.ctrl.SkipTo(target)
	delta := target - next
	r.skipped += delta
	for _, c := range r.cores {
		c.SkipCycles(delta)
	}
	r.ffJumps++
	r.ffBound[bound]++
	return target, nil
}

// run is sim.System.Run: warmup, statistics reset, measured window.
func (r *replica) run() (sim.Result, error) {
	if r.cfg.WarmupPerCore > 0 {
		if _, err := r.phase(r.cfg.WarmupPerCore); err != nil {
			return sim.Result{}, err
		}
		r.ctrl.CatchUp(r.cycle)
		for _, c := range r.cores {
			c.ResetStats()
		}
		r.hier.ResetStats()
		r.ctrl.ResetStats()
	}
	r.warm = r.loopCounters
	start := r.cycle
	finish, err := r.phase(r.cfg.InstrPerCore)
	if err != nil {
		return sim.Result{}, err
	}
	r.ctrl.CatchUp(r.cycle)
	res := sim.Result{
		Workload: r.cfg.Workload,
		Scheme:   r.cfg.Scheme,
		Policy:   r.cfg.Policy,
		Apps:     append([]string(nil), r.apps...),
		Cycles:   r.cycle - start,
		CoreIPC:  make([]float64, len(r.cores)),
		Ctrl:     r.ctrl.Stats(),
		Dev:      r.ctrl.DeviceStats(),
		Cache:    r.hier.Stats,
		Energy:   r.ctrl.Energy(),
		Cal:      power.CalNone(),
	}
	for i := range r.cores {
		res.CoreIPC[i] = float64(r.cfg.InstrPerCore) / float64(finish[i])
	}
	return res, nil
}
