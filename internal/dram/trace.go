package dram

import (
	"fmt"

	"pradram/internal/core"
)

// CmdKind identifies a DRAM command in the trace stream.
type CmdKind uint8

// The traced DRAM command kinds.
const (
	CmdAct   CmdKind = iota // row activation
	CmdRead                 // column read
	CmdWrite                // column write
	CmdPre                  // bank precharge
	CmdRef                  // refresh
	CmdRFM                  // refresh management (RowHammer mitigation)
	CmdCKE                  // CKE transition: power-down or self-refresh entry, or wake
)

var cmdNames = core.Enum[CmdKind]{Names: []string{"ACT", "RD", "WR", "PRE", "REF", "RFM", "CKE"}}

// String returns the command's mnemonic ("ACT", "RD", ...).
func (k CmdKind) String() string { return cmdNames.Name(k) }

// CmdEvent is one command as issued on the channel, with its data-bus
// occupancy when applicable. Events stream to Channel.Trace in issue
// order; the hook must not retain the event past the call.
type CmdEvent struct {
	At   int64 // command cycle
	Kind CmdKind
	Rank int
	Bank int
	Row  int
	Mask core.Mask // activations: the PRA mask (FullMask for normal ACTs)

	// DataStart/DataEnd delimit the burst on the data bus for RD/WR
	// (half-open interval [DataStart, DataEnd)); zero otherwise.
	DataStart, DataEnd int64

	// Frac is a RD's or WR's energy scale, as the column command was given
	// it: the fraction of the line's words a write drives, or a read's
	// transfer rate relative to a full-rate burst (0.5 for FGA's half-rate
	// reads). Zero otherwise.
	Frac float64

	// PD is the rank's power-down state after a CKE transition: the state
	// entered, or PDAwake for a wake. A CKE transition takes no
	// command-bus slot. A wake's At is the cycle it was requested; CKE
	// rises then, or once the rank has been down tCKE, whichever is later.
	PD PDState

	// PerBank marks a refresh as a per-bank REFpb of Bank (an all-bank REF
	// otherwise). AutoPre marks a precharge a column command issued with
	// auto-precharge: it takes no command-bus slot, and its At (the bank's
	// tRAS/tRTP/tWR bound) may lie past commands emitted after it.
	PerBank, AutoPre bool
}

// String renders the event in a DRAMSim2-like one-line format.
func (e CmdEvent) String() string {
	switch {
	case e.Kind == CmdAct:
		return fmt.Sprintf("%8d %-3s r%d b%d row %d mask %s", e.At, e.Kind, e.Rank, e.Bank, e.Row, e.Mask)
	case e.Kind == CmdRead || e.Kind == CmdWrite:
		return fmt.Sprintf("%8d %-3s r%d b%d bus [%d,%d)", e.At, e.Kind, e.Rank, e.Bank, e.DataStart, e.DataEnd)
	case e.Kind == CmdRef && e.PerBank:
		return fmt.Sprintf("%8d REFpb r%d b%d", e.At, e.Rank, e.Bank)
	case e.Kind == CmdRef:
		return fmt.Sprintf("%8d %-3s r%d", e.At, e.Kind, e.Rank)
	case e.Kind == CmdCKE:
		return fmt.Sprintf("%8d %-3s r%d %v", e.At, e.Kind, e.Rank, e.PD)
	default:
		return fmt.Sprintf("%8d %-3s r%d b%d", e.At, e.Kind, e.Rank, e.Bank)
	}
}

// emit streams an event to the trace hook if one is installed.
func (c *Channel) emit(e CmdEvent) {
	if c.Trace != nil {
		c.Trace(e)
	}
}
