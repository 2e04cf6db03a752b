package core

// AccessKind distinguishes the two DRAM request classes PRA treats
// asymmetrically: reads always need the full row; writes need only the MAT
// groups holding their dirty words.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
)

var accessKindNames = Enum[AccessKind]{Names: []string{"read", "write"}}

func (k AccessKind) String() string { return accessKindNames.Name(k) }

// RowHitOutcome classifies what happens when a request finds its target row
// already open in a bank under PRA (Section 5.2.1).
type RowHitOutcome uint8

const (
	// Hit: the open (possibly partial) row covers the request; the column
	// command can be issued directly.
	Hit RowHitOutcome = iota
	// FalseHit: the row is open but only partially, and the request needs
	// words outside the open mask (always the case for reads against a
	// partial row). The bank must precharge and re-activate — an ACT/PRE
	// pair a conventional DRAM would not have paid.
	FalseHit
	// Miss: a different row (or no row) is open; the normal conflict path.
	Miss
)

var rowHitNames = Enum[RowHitOutcome]{Names: []string{"hit", "false-hit", "miss"}}

func (o RowHitOutcome) String() string { return rowHitNames.Name(o) }

// ClassifyAccess applies the PRA row-buffer rules: given whether a row is
// open, whether it is the row the request targets, the open mask, the
// request kind, and the request's needed mask (dirty words for writes;
// ignored for reads, which need the full row).
func ClassifyAccess(open bool, sameRow bool, openMask Mask, kind AccessKind, need Mask) RowHitOutcome {
	if !open || !sameRow {
		return Miss
	}
	required := FullMask
	if kind == Write {
		required = need
	}
	if openMask.Covers(required) {
		return Hit
	}
	return FalseHit
}

// ActivationWeight returns the charge a partial activation contributes to
// the tRRD/tFAW budget. A conventional full-row activation weighs 1.0; a g/8
// partial activation weighs g/8. The paper states that partial activations
// relax tRRD and tFAW (Section 4.1.3) because those constraints exist to cap
// peak activation current, which is proportional to the number of bitlines
// activated; charging each activation its activated fraction concretizes
// that. halfDRAM halves the weight again (Half-DRAM activates half of every
// MAT's bitlines).
func ActivationWeight(m Mask, halfDRAM bool) float64 {
	w := m.Fraction()
	if halfDRAM {
		w /= 2
	}
	return w
}

// ScaledRRD returns the tRRD imposed on the *next* activation by an
// activation of weight w: ceil(tRRD*w), floored at one command cycle.
func ScaledRRD(tRRD int, w float64) int {
	scaled := int(float64(tRRD)*w + 0.9999)
	if scaled < 1 {
		scaled = 1
	}
	if scaled > tRRD {
		scaled = tRRD
	}
	return scaled
}
