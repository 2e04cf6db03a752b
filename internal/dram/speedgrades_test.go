package dram

import "testing"

// TestDefaultTimingIsDDR31600 pins the paper's timing set (Table 3 plus the
// datasheet values it leaves out) field for field: every DDR3-1600 golden
// rests on these numbers.
func TestDefaultTimingIsDDR31600(t *testing.T) {
	t.Parallel()
	want := Timing{
		Rate: Rate{1600, 1},
		TRCD: 11, TRP: 11, TCAS: 11, TRAS: 28, TWR: 12, TCCD: 4,
		TRRD: 5, TFAW: 24, TRC: 39, TBURST: 4, CWL: 8, TRTP: 6, TWTR: 6,
		TRTRS: 2, TREFI: 6240, TRFC: 128, TRFCPB: 72,
		TXP: 5, TXPDLL: 20, TXS: 136, TCKE: 4, TRFM: 72,
		PRAMaskCycles: 1,
	}
	if got := DefaultTiming(); got != want {
		t.Errorf("DefaultTiming() =\n%+v\nwant\n%+v", got, want)
	}
}

// TestSpeedGradeTimings pins every bin's timing set. Each row states the
// fields that vary by bin; every other field must equal DDR3-1600's. The
// datasheet tCK (ns) is derived from the exact rate, rounded half up in ps.
func TestSpeedGradeTimings(t *testing.T) {
	t.Parallel()
	type row struct {
		name                                                   string
		rate                                                   Rate
		tck                                                    float64
		cl, ras, wr, rrd, faw, cwl, rtp, wtr, rfc, rfcpb, refi int
		xp, xpdll, xs, cke, rfm                                int
	}
	rows := []row{
		{"DDR3-800", Rate{800, 1}, 2.5, 6, 15, 6, 4, 16, 5, 4, 4, 64, 36, 3120, 3, 10, 68, 3, 36},
		{"DDR3-1066", Rate{3200, 3}, 1.875, 7, 20, 8, 4, 20, 6, 4, 4, 86, 48, 4160, 4, 13, 91, 3, 48},
		{"DDR3-1333", Rate{4000, 3}, 1.5, 9, 24, 10, 4, 20, 7, 5, 5, 107, 60, 5200, 4, 16, 114, 4, 60},
		{"DDR3-1600", Rate{1600, 1}, 1.25, 11, 28, 12, 5, 24, 8, 6, 6, 128, 72, 6240, 5, 20, 136, 4, 72},
		{"DDR3-1866", Rate{5600, 3}, 1.071, 13, 32, 14, 5, 26, 9, 7, 7, 150, 85, 7282, 6, 23, 159, 5, 85},
		{"DDR3-2133", Rate{6400, 3}, 0.938, 14, 36, 16, 6, 27, 10, 8, 8, 171, 96, 8315, 7, 26, 182, 6, 96},
	}
	grades := SpeedGrades()
	if len(grades) != len(rows) {
		t.Fatalf("%d speed grades, want %d", len(grades), len(rows))
	}
	for i, r := range rows {
		want := DefaultTiming()
		want.Rate = r.rate
		want.TCAS, want.TRCD, want.TRP, want.TRAS, want.TRC = r.cl, r.cl, r.cl, r.ras, r.ras+r.cl
		want.TWR, want.TRRD, want.TFAW, want.CWL = r.wr, r.rrd, r.faw, r.cwl
		want.TRTP, want.TWTR, want.TRFC, want.TRFCPB, want.TREFI = r.rtp, r.wtr, r.rfc, r.rfcpb, r.refi
		want.TXP, want.TXPDLL, want.TXS, want.TCKE, want.TRFM = r.xp, r.xpdll, r.xs, r.cke, r.rfm
		g := grades[i]
		if g.Name != r.name {
			t.Errorf("grade %d = %s, want %s", i, g.Name, r.name)
		}
		if g.Timing != want {
			t.Errorf("%s timing =\n%+v\nwant\n%+v", r.name, g.Timing, want)
		}
		if g.Timing.TCKNs() != r.tck {
			t.Errorf("%s: datasheet tCK %v ns, want %v", r.name, g.Timing.TCKNs(), r.tck)
		}
		if byName, ok := SpeedGradeByName(r.name); !ok || byName != g {
			t.Errorf("SpeedGradeByName(%q) = %+v, %v; want the listed grade", r.name, byName, ok)
		}
	}
	if _, ok := SpeedGradeByName("DDR3-9999"); ok {
		t.Error("an unknown grade must not resolve")
	}
}

// TestSpeedGradesValidate: every bin's derived timing set passes
// Timing.Validate, the couplings between parameters included.
func TestSpeedGradesValidate(t *testing.T) {
	t.Parallel()
	for _, g := range SpeedGrades() {
		if err := g.Timing.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}
