package memctrl

import (
	"testing"

	"pradram/internal/core"
	"pradram/internal/power"
)

func TestSDSChipMaskForFullWordStore(t *testing.T) {
	t.Parallel()
	// One fully dirty 8-byte word touches every byte position: SDS must
	// access all 8 chips (full activation), while PRA would open 1 MAT
	// group — the Section 3 asymmetry.
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = SDS })
	c.Write(addrAt(c, Loc{Row: 3}), core.StoreBytes(0, 8))
	runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
	d := c.DeviceStats()
	if d.ActsByGranularity[8] != 1 {
		t.Errorf("SDS full-word write must access all chips, got %v", d.ActsByGranularity)
	}
	if d.WordsWritten != 8 {
		t.Errorf("SDS full-word write transfers on all chips, got %d/8", d.WordsWritten)
	}
}

func TestSDSSkipsCleanChips(t *testing.T) {
	t.Parallel()
	// A 2-byte store dirties byte positions 0 and 1 only: SDS accesses 2
	// chips; activation energy scales linearly (2/8 of full).
	c := newCtl(t, func(cfg *Config) { cfg.Scheme = SDS })
	c.Write(addrAt(c, Loc{Row: 3}), core.StoreBytes(0, 2))
	runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
	d := c.DeviceStats()
	if d.ActsByGranularity[2] != 1 {
		t.Errorf("SDS 2-byte write must access 2 chips, got %v", d.ActsByGranularity)
	}
	e := c.Energy()[power.CompActPre]
	// Linear scale: exactly 2/8 of the full activation energy.
	base := newCtl(t, nil)
	base.Write(addrAt(base, Loc{Row: 3}), core.StoreBytes(0, 2))
	runUntil(t, base, 0, 100000, func() bool { return base.Stats().WritesServed == 1 })
	full := base.Energy()[power.CompActPre]
	if ratio := e / full; ratio < 0.24 || ratio > 0.26 {
		t.Errorf("SDS ACT energy ratio = %.3f, want 0.25 (linear per-chip)", ratio)
	}
}

func TestSDSVsPRACoverage(t *testing.T) {
	t.Parallel()
	// The same dirty pattern — two full words — yields 2/8 under PRA
	// (two MAT groups) but 8/8 under SDS (every byte position dirty).
	pattern := core.StoreBytes(0, 8) | core.StoreBytes(24, 8)
	run := func(s Scheme) [9]int64 {
		c := newCtl(t, func(cfg *Config) { cfg.Scheme = s })
		c.Write(addrAt(c, Loc{Row: 5}), pattern)
		runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
		return c.DeviceStats().ActsByGranularity
	}
	pra, sds := run(PRA), run(SDS)
	if pra[2] != 1 {
		t.Errorf("PRA: want 2/8 activation, got %v", pra)
	}
	if sds[8] != 1 {
		t.Errorf("SDS: want 8/8 chip access, got %v", sds)
	}
}

func TestSDSNoExtraMaskCycle(t *testing.T) {
	t.Parallel()
	// SDS delivers its mask via DM pins: the column command is not
	// delayed, so a partial SDS write completes no later than a PRA one.
	finish := func(s Scheme) int64 {
		c := newCtl(t, func(cfg *Config) { cfg.Scheme = s })
		c.Write(addrAt(c, Loc{Row: 3}), core.StoreBytes(0, 2))
		return runUntil(t, c, 0, 100000, func() bool { return c.Stats().WritesServed == 1 })
	}
	if sds, pra := finish(SDS), finish(PRA); sds > pra {
		t.Errorf("SDS write at %d must not be slower than PRA at %d", sds, pra)
	}
}

func TestSDSParsesAndLists(t *testing.T) {
	t.Parallel()
	var s Scheme
	if err := s.Set("sds"); err != nil || s != SDS {
		t.Fatalf("Set(sds) = %v, %v", s, err)
	}
	found := false
	for _, sc := range Schemes() {
		if sc == SDS {
			found = true
		}
	}
	if !found {
		t.Error("SDS missing from Schemes()")
	}
	if !SDS.praWrites() || !SDS.chipMasks() || SDS.halfDRAMOrg() {
		t.Error("SDS scheme property flags wrong")
	}
}
