package cpu

import "testing"

func TestResetStatsKeepsPipeline(t *testing.T) {
	mem := &fakeMem{}
	ops := []Op{{Kind: Load, Addr: 0x40}}
	c, _ := New(0, DefaultConfig(), &scriptGen{ops: ops}, mem)
	run(c, 20) // load outstanding, ROB partially filled
	before := c.count
	c.ResetStats()
	if c.Retired != 0 || c.Cycles != 0 || c.Loads != 0 {
		t.Error("ResetStats must zero counters")
	}
	if c.count != before {
		t.Error("ResetStats must not disturb the ROB")
	}
	// Completing the load lets retirement resume and recount from zero.
	mem.completeAll(20)
	run(c, 50)
	if c.Retired == 0 {
		t.Error("execution must continue after reset")
	}
	if c.IPC() <= 0 {
		t.Error("IPC must be measured over the post-reset window")
	}
}

func TestRingRecyclesSlots(t *testing.T) {
	// A long compute stream wraps the ring many times: occupancy must
	// never exceed the ROB and the core must stay correct throughout.
	c, _ := New(0, DefaultConfig(), &scriptGen{}, &fakeMem{})
	run(c, 5000)
	if c.count > c.cfg.ROB {
		t.Errorf("ring occupancy %d exceeds ROB %d", c.count, c.cfg.ROB)
	}
	if c.Retired < int64(4000*c.cfg.Width/2) {
		t.Errorf("retired %d, expected near width*cycles", c.Retired)
	}
}
