package dram

import (
	"strings"
	"testing"

	"pradram/internal/core"
	"pradram/internal/power"
)

func TestCmdKindAndEventStrings(t *testing.T) {
	t.Parallel()
	events := []CmdEvent{
		{At: 5, Kind: CmdAct, Rank: 0, Bank: 1, Row: 42, Mask: core.Mask(0x81)},
		{At: 17, Kind: CmdRead, Rank: 0, Bank: 1, DataStart: 28, DataEnd: 32},
		{At: 40, Kind: CmdWrite, Rank: 1, Bank: 0, DataStart: 48, DataEnd: 52},
		{At: 60, Kind: CmdPre, Rank: 0, Bank: 1},
		{At: 99, Kind: CmdRef, Rank: 1},
		{At: 99, Kind: CmdRef, Rank: 1, Bank: 0, PerBank: true},
	}
	wants := []string{"ACT", "RD", "WR", "PRE", "REF r1", "REFpb r1 b0"}
	for i, e := range events {
		if !strings.Contains(e.String(), wants[i]) {
			t.Errorf("event %d string %q missing %q", i, e.String(), wants[i])
		}
	}
	if s := events[4].String(); strings.Contains(s, "REFpb") || strings.Contains(s, " b") {
		t.Errorf("all-bank REF rendered as %q: it must name no bank", s)
	}
	if CmdKind(99).String() != "CmdKind(99)" {
		t.Error("unknown kind string wrong")
	}
	if !strings.Contains(events[0].String(), "10000001b") {
		t.Error("ACT event must render its PRA mask")
	}
}

// Figure 7(a): a partial activation delays the column command by tCK (the
// mask transfer) relative to the conventional timing of Figure 7(b). The
// golden trace pins the exact command cycles.
func TestFigure7GoldenTrace(t *testing.T) {
	t.Parallel()
	run := func(mask core.Mask) []CmdEvent {
		ch, err := NewChannel(DefaultTiming(), DefaultGeometry(), power.NewAccumulator())
		if err != nil {
			t.Fatal(err)
		}
		var trace []CmdEvent
		ch.Trace = func(e CmdEvent) { trace = append(trace, e) }
		if err := ch.Activate(0, 0, 0, 7, mask, false); err != nil {
			t.Fatal(err)
		}
		at := ch.WriteReadyAt(0, 0, 0, ch.T.TBURST)
		if _, err := ch.Write(at, 0, 0, ch.T.TBURST, mask.Fraction(), false); err != nil {
			t.Fatal(err)
		}
		pre := ch.PreReadyAt(at, 0, 0)
		if err := ch.Precharge(pre, 0, 0); err != nil {
			t.Fatal(err)
		}
		return trace
	}

	full := run(core.FullMask)
	partial := run(core.Mask(0x01))
	if len(full) != 3 || len(partial) != 3 {
		t.Fatalf("traces must have ACT, WR, PRE: %d / %d", len(full), len(partial))
	}
	// Conventional: WR at tRCD = 11. Partial: WR at tRCD + tCK = 12.
	if full[1].At != 11 {
		t.Errorf("full-row write at %d, want tRCD=11 (Fig. 7b)", full[1].At)
	}
	if partial[1].At != 12 {
		t.Errorf("partial write at %d, want tRCD+1=12 (Fig. 7a)", partial[1].At)
	}
	// PRE follows tWR after the burst end in both cases.
	wantPre := full[1].DataEnd + 12
	if full[2].At != wantPre {
		t.Errorf("full PRE at %d, want burst end + tWR = %d", full[2].At, wantPre)
	}
}
