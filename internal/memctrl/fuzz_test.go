package memctrl

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"pradram/internal/core"
	"pradram/internal/dram"
)

// checkConservation asserts the invariants that must hold after any
// traffic pattern drains: every accepted read completed exactly once,
// served counts match accepted counts, device-level command counts are
// consistent with controller-level stats, and energy accrued.
func checkConservation(t *testing.T, c *Controller, acceptedReads, acceptedWrites, completions int64) {
	t.Helper()
	s := c.Stats()
	if completions != acceptedReads {
		t.Errorf("read completions %d != accepted %d", completions, acceptedReads)
	}
	if s.ReadsServed != acceptedReads {
		t.Errorf("served reads %d != accepted %d", s.ReadsServed, acceptedReads)
	}
	// Writes may merge in the queue: served <= accepted.
	if s.WritesServed > acceptedWrites {
		t.Errorf("served writes %d > accepted %d", s.WritesServed, acceptedWrites)
	}
	d := c.DeviceStats()
	// Device reads exclude forwarded ones.
	if d.Reads != s.ReadsServed-s.Forwarded {
		t.Errorf("device reads %d != served-forwarded %d", d.Reads, s.ReadsServed-s.Forwarded)
	}
	if d.Writes != s.WritesServed {
		t.Errorf("device writes %d != served %d", d.Writes, s.WritesServed)
	}
	// Hits + activations cover all device accesses: every column access
	// either hit an open row or paid an ACT (false hits re-activate, so
	// ACTs can exceed misses, but never undercut them).
	misses := (d.Reads - (s.RowHitRead - s.Forwarded)) + (d.Writes - s.RowHitWrite)
	if d.Activations() < misses {
		t.Errorf("activations %d < misses %d", d.Activations(), misses)
	}
	if acceptedReads+acceptedWrites > 0 && c.Energy().Total() <= 0 {
		t.Error("no energy accrued")
	}
}

// driveRandomTraffic feeds seeded random traffic into a fresh controller,
// drains it, and checks conservation and, after every tick, the scheduler
// index. Addresses are uniform over 4 GiB when rowPool is 0; otherwise they
// fall on rowPool rows per bank, so requests cluster on open rows (hits,
// false hits, mask unions, the hit cap, forwards and merges). remerge of
// every 256 writes re-target one of the last eight written lines with a
// fresh partial mask: a merge while the first write is still queued, which
// grows its need() under a row that may be partially open. everyTick calls
// disarmWakes before each Tick. It returns a digest of the command stream
// and the final statistics. The shared harness behind both the
// deterministic matrix test and the fuzz target.
func driveRandomTraffic(t *testing.T, cfg Config, seed int64, cycles int64, rowPool, remerge int, everyTick bool) string {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var acceptedReads, acceptedWrites, completions int64
	outstanding := 0
	// The scheduler index is re-verified after every tick that could have
	// changed it: one that followed an accepted request or issued a command.
	dirty := false
	h := sha256.New()
	c.OnCommand(func(ch int, e dram.CmdEvent) {
		dirty = true
		fmt.Fprintf(h, "%d %+v\n", ch, e)
	})
	tick := func(cpu int64) {
		if everyTick {
			disarmWakes(c)
		}
		c.Tick(cpu)
		if dirty {
			checkIndex(t, c)
			dirty = false
		}
	}
	var recent [8]uint64
	var cpu, written int64
	for ; cpu < cycles; cpu++ {
		if cpu%6 == 0 && outstanding < 40 {
			addr := (rng.Uint64() % (4 << 30)) &^ 63
			if rowPool > 0 {
				l := c.am.Decompose(addr)
				l.Row %= rowPool
				addr = compose(c.am, l)
			}
			if rng.Intn(3) == 0 {
				m := core.StoreBytes(rng.Intn(8)*8, 8*(1+rng.Intn(3)))
				if remerge > 0 && written > 0 && rng.Intn(256) < remerge {
					addr = recent[rng.Int63n(min(written, int64(len(recent))))]
				}
				if c.Write(addr, m) {
					recent[written%int64(len(recent))] = addr
					written++
					acceptedWrites++
					dirty = true
				}
			} else {
				if c.Read(addr, core.Untagged(func(int64) {
					completions++
					outstanding--
				})) {
					acceptedReads++
					outstanding++
					dirty = true
				}
			}
		}
		tick(cpu)
	}
	// Drain.
	for limit := cpu + 4*2_000_000; c.Pending() && cpu < limit; cpu++ {
		tick(cpu)
	}
	if c.Pending() {
		t.Fatal("controller failed to drain")
	}
	checkConservation(t, c, acceptedReads, acceptedWrites, completions)
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", c.Stats(), c.DeviceStats(), c.Energy())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Conservation fuzz: under random traffic, the conservation invariants
// hold for the whole scheme x policy matrix.
func TestTrafficConservationMatrix(t *testing.T) {
	t.Parallel()
	for _, scheme := range Schemes() {
		for _, policy := range []Policy{RelaxedClose, RestrictedClose, OpenPage} {
			scheme, policy := scheme, policy
			name := scheme.String() + "/" + policy.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.Policy = policy
				if policy == RestrictedClose {
					cfg.Mapping = LineInterleaved
				}
				driveRandomTraffic(t, cfg, int64(scheme)*10+int64(policy), 4*60_000, 0, 0, false)
			})
		}
	}
}

// FuzzTrafficConservation lets the fuzzer pick the scheme, policy, speed
// grade and traffic seed. The seed corpus pins the configurations the parallel
// experiment runner exercises hardest: under the concurrent cache every
// distinct (workload, scheme, policy) key simulates exactly once, so the
// PRA and baseline relaxed-close controllers see the densest shared-row
// traffic (write merging, read forwarding — the controller's own cache
// paths), and the restricted/line-interleaved pair covers the other
// mapping. Run with: go test ./internal/memctrl -fuzz FuzzTrafficConservation
func FuzzTrafficConservation(f *testing.F) {
	// One seed per scheme at the default relaxed-close/row-interleaved
	// pairing, plus restricted and open-page variants of PRA.
	for _, s := range Schemes() {
		f.Add(uint8(s), uint8(RelaxedClose), int64(1), uint8(0), uint8(0), uint8(3))
	}
	f.Add(uint8(PRA), uint8(RestrictedClose), int64(2), uint8(0), uint8(0), uint8(3))
	f.Add(uint8(PRA), uint8(OpenPage), int64(3), uint8(0), uint8(0), uint8(3))
	// The dedup-heavy interleavings: same seed, differing only in scheme,
	// as produced when the worker pool runs a baseline/PRA pair of one
	// workload concurrently.
	f.Add(uint8(Baseline), uint8(RelaxedClose), int64(77), uint8(0), uint8(0), uint8(3))
	f.Add(uint8(PRA), uint8(RelaxedClose), int64(77), uint8(0), uint8(0), uint8(3))
	// Row-clustered addresses (one to three rows per bank): the traffic
	// that keeps the per-bank open-row summaries busy.
	for _, policy := range []Policy{RelaxedClose, RestrictedClose, OpenPage} {
		f.Add(uint8(PRA), uint8(policy), int64(5), uint8(1), uint8(0), uint8(3))
		f.Add(uint8(HalfDRAMPRA), uint8(policy), int64(6), uint8(3), uint8(0), uint8(3))
		// Write merges under partially open rows: the merged write's grown
		// mask must reach the cached column pick, activation mask and
		// false-hit class of its bank. The open-page cell keeps partial
		// rows open longest.
		f.Add(uint8(PRA), uint8(policy), int64(8), uint8(1), uint8(96), uint8(3))
		f.Add(uint8(SDS), uint8(policy), int64(9), uint8(2), uint8(200), uint8(3))
	}
	f.Add(uint8(Baseline), uint8(RelaxedClose), int64(7), uint8(2), uint8(0), uint8(3))
	f.Add(uint8(PRA), uint8(RelaxedClose), int64(10), uint8(0), uint8(255), uint8(3))
	// The fractional clocks, where DRAM ticks fall unevenly between CPU
	// cycles: 24:5 at DDR3-1333 and 24:7 at DDR3-1866.
	f.Add(uint8(PRA), uint8(RelaxedClose), int64(11), uint8(1), uint8(96), uint8(2))
	f.Add(uint8(PRA), uint8(OpenPage), int64(12), uint8(1), uint8(96), uint8(4))
	f.Add(uint8(Baseline), uint8(RelaxedClose), int64(13), uint8(0), uint8(0), uint8(4))

	f.Fuzz(func(t *testing.T, schemeByte, policyByte uint8, seed int64, rowPool, remerge, grade uint8) {
		schemes := Schemes()
		scheme := schemes[int(schemeByte)%len(schemes)]
		policies := []Policy{RelaxedClose, RestrictedClose, OpenPage}
		policy := policies[int(policyByte)%len(policies)]
		grades := dram.SpeedGrades()
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.Policy = policy
		cfg.Timing = grades[int(grade)%len(grades)].Timing
		if policy == RestrictedClose {
			cfg.Mapping = LineInterleaved
		}
		// A shorter window than the matrix test keeps fuzz iterations
		// fast; the drain bound and invariants are identical. The wake
		// contract: a pass on every DRAM tick changes nothing.
		sleeping := driveRandomTraffic(t, cfg, seed, 4*12_000, int(rowPool), int(remerge), false)
		if every := driveRandomTraffic(t, cfg, seed, 4*12_000, int(rowPool), int(remerge), true); every != sleeping {
			t.Error("a scheduling pass on every DRAM tick changed the command stream or the statistics")
		}
	})
}
