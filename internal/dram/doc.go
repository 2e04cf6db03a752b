// Package dram is a cycle-level timing model of a DDR3 memory channel, the
// role DRAMSim2 plays in the paper's evaluation platform. It models banks as
// finite-state machines with open rows (optionally partially opened under
// PRA masks), enforces the DDR3 command-timing constraints the paper lists
// in Table 3 (tRCD, tRP, tCAS, tRAS, tWR, tCCD, tRRD, tFAW, tRC) plus the
// command/data-bus structural hazards, implements the weighted tRRD/tFAW
// relaxation for partial activations (Section 4.1.3), periodic refresh,
// power-down and self-refresh, and charges the power model for every event.
//
// The package is deliberately policy-free: the memory controller in
// internal/memctrl decides *what* to issue and when; this package answers
// "when is that command legal" and mutates device state when it is issued.
// All times are absolute memory-clock cycles (800 MHz for DDR3-1600).
package dram
