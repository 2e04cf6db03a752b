package dram

// SpeedGrade is a DDR3 bin and the timing ddr3 derives for it, whose Rate is
// the bin's exact clock. Chip powers stay at Table 3's DDR3-1600 values, so a
// sweep isolates the timing effect.
type SpeedGrade struct {
	Name   string
	Timing Timing
}

// ck is a timing parameter as datasheets state it: ≥ nCK cycles and ≥ ps picoseconds.
type ck struct{ nCK, ps int }

// bin is what a datasheet states per speed bin: the data rate, CL (= tRCD
// = tRP) and CWL in nCK, then tRAS, tRRD and tFAW.
type bin struct {
	name             string
	rate             Rate
	cl, cwl          int
	tRAS, tRRD, tFAW ck
}

// device states a part's timing once: its bins, then what every bin
// shares. A new bin is a row; a new part is another device.
type device struct {
	bins []bin
	// tXS's ps count from the end of tRFC; tREFI is a maximum.
	tWR, tRTP, tWTR, tRFC, tRFCPB, tRFM, tCKE, tXP, tXPDLL, tXS, tREFI ck
}

// ddr3 is the paper's 2Gb x8 part (Table 3, then the datasheet), slowest bin first.
var ddr3 = device{
	bins: []bin{
		{"DDR3-800", Rate{800, 1}, 6, 5, ck{0, 37500}, ck{4, 10000}, ck{0, 40000}},
		{"DDR3-1066", Rate{3200, 3}, 7, 6, ck{0, 37500}, ck{4, 7500}, ck{0, 37500}},
		{"DDR3-1333", Rate{4000, 3}, 9, 7, ck{0, 36000}, ck{4, 6000}, ck{0, 30000}},
		{"DDR3-1600", Rate{1600, 1}, 11, 8, ck{0, 35000}, ck{4, 6000}, ck{0, 30000}},
		{"DDR3-1866", Rate{5600, 3}, 13, 9, ck{0, 34000}, ck{4, 5000}, ck{0, 27000}},
		{"DDR3-2133", Rate{6400, 3}, 14, 10, ck{0, 33000}, ck{4, 5000}, ck{0, 25000}},
	},
	tWR: ck{0, 15000}, tRTP: ck{4, 7500}, tWTR: ck{4, 7500}, tCKE: ck{3, 5000},
	tRFC: ck{0, 160000}, tRFCPB: ck{0, 90000}, tRFM: ck{0, 90000}, tREFI: ck{0, 7800000},
	tXP: ck{3, 6000}, tXPDLL: ck{10, 24000}, tXS: ck{5, 10000},
}

// timing derives bin b's Timing. A time becomes cycles against the datasheet
// tCK by JEDEC's rounding, (ps·1000/tCK + 974)/1000, which forgives tCK's
// rounding (15 ns at 1.071 ns is 14 cycles), then the floor; tREFI rounds down.
func (d device) timing(b bin) Timing {
	n := func(p ck) int { return max(p.nCK, (p.ps*1000/b.rate.tckPs()+974)/1000) }
	return Timing{
		Rate: b.rate, TCAS: b.cl, TRCD: b.cl, TRP: b.cl, CWL: b.cwl,
		TRAS: n(b.tRAS), TRC: n(b.tRAS) + b.cl, TRRD: n(b.tRRD), TFAW: n(b.tFAW),
		TWR: n(d.tWR), TRTP: n(d.tRTP), TWTR: n(d.tWTR), TCKE: n(d.tCKE),
		TRFC: n(d.tRFC), TRFCPB: n(d.tRFCPB), TRFM: n(d.tRFM), TREFI: d.tREFI.ps / b.rate.tckPs(),
		TXP: n(d.tXP), TXPDLL: n(d.tXPDLL), TXS: n(ck{d.tXS.nCK, d.tRFC.ps + d.tXS.ps}),
		TCCD: 4, TBURST: 4, TRTRS: 2, PRAMaskCycles: 1, // in nCK on every DDR3 part
	}
}

// SpeedGrades returns the supported DDR3 bins, slowest first.
func SpeedGrades() []SpeedGrade {
	gs := make([]SpeedGrade, len(ddr3.bins))
	for i, b := range ddr3.bins {
		gs[i] = SpeedGrade{b.name, ddr3.timing(b)}
	}
	return gs
}

// SpeedGradeByName resolves a grade by name; ok is false when unknown.
func SpeedGradeByName(name string) (SpeedGrade, bool) {
	for _, g := range SpeedGrades() {
		if g.Name == name {
			return g, true
		}
	}
	return SpeedGrade{}, false
}
