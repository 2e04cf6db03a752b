package memctrl

import "pradram/internal/core"

// Scheme selects the row-activation architecture under study (Section 5.2).
type Scheme int

const (
	// Baseline is the conventional DRAM: full-row activation, full bursts.
	Baseline Scheme = iota
	// FGA is fine-grained activation at half-row granularity, the variant
	// the paper evaluates: half activation energy for reads and writes,
	// but the n-bit prefetch is broken so every 64B transfer takes twice
	// the bursts (16 bursts / 8 memory cycles).
	FGA
	// HalfDRAM activates half of every MAT for reads and writes at full
	// bandwidth (Zhang et al., ISCA'14; the Half-DRAM-1Row variant).
	HalfDRAM
	// PRA is the paper's contribution: full-row activation for reads;
	// partial activation (one-eighth to full) for writes driven by FGD
	// dirty-word masks, with only dirty words transferred on the bus.
	PRA
	// HalfDRAMPRA layers PRA's write-mask selection on top of the
	// Half-DRAM organization (Section 5.2.3): reads activate half rows;
	// writes activate half of the masked MAT groups.
	HalfDRAMPRA
	// SDS is the Skinflint DRAM System (Lee et al., HPCA 2013), the
	// inter-chip comparison point of Section 3: a write accesses only the
	// chips whose byte positions are dirty (one chip per byte position of
	// every word), skipping activation and data transfer on clean chips.
	// Because chips are independent devices, skipping a chip saves its
	// full share linearly — but one dirty word already touches all eight
	// byte positions, so SDS's coverage is far below PRA's.
	SDS
)

// SchemeNames spells each Scheme once (the -scheme flag's names).
var SchemeNames = core.Enum[Scheme]{
	Names: []string{"baseline", "fga", "halfdram", "pra", "halfdram+pra", "sds"},
}

// String returns the scheme's canonical name.
func (s Scheme) String() string { return SchemeNames.Name(s) }

// Set parses a scheme name into s (*Scheme is a flag.Value).
func (s *Scheme) Set(name string) error { return SchemeNames.Set(s, name) }

// Schemes lists all schemes in presentation order.
func Schemes() []Scheme { return SchemeNames.Values() }

// halfDRAMOrg reports whether the scheme uses the Half-DRAM cell
// organization (halved activation energy and tRRD/tFAW weight per mask
// bit). FGA also activates half the bitline capacity per row.
func (s Scheme) halfDRAMOrg() bool { return s == HalfDRAM || s == HalfDRAMPRA || s == FGA }

// praWrites reports whether writes use dirtiness-driven partial access
// masks (PRA at word/MAT-group granularity; SDS at chip granularity).
func (s Scheme) praWrites() bool { return s == PRA || s == HalfDRAMPRA || s == SDS }

// chipMasks reports whether write masks select chips (SDS) rather than
// MAT groups (PRA).
func (s Scheme) chipMasks() bool { return s == SDS }

// burstCycles returns the data-bus cycles one 64B transfer occupies.
func (s Scheme) burstCycles(base int) int {
	if s == FGA {
		return 2 * base // prefetch broken: 16 bursts instead of 8
	}
	return base
}

// ioFrac returns the I/O energy scale per transfer relative to a full-rate
// burst: FGA moves the same bits at half rate over twice the time, so its
// per-transfer I/O energy matches the baseline (the paper's Figure 12(b)
// note: FGA's I/O *power* drops only via the longer runtime).
func (s Scheme) ioFrac() float64 {
	if s == FGA {
		return 0.5
	}
	return 1
}

// Policy selects the row-buffer management policy (Section 5.1.2).
type Policy int

const (
	// RelaxedClose closes an open row when no queued request can benefit
	// from it, and puts idle ranks into precharge power-down.
	RelaxedClose Policy = iota
	// RestrictedClose auto-precharges after every column access: each
	// request is an atomic ACT + column + PRE.
	RestrictedClose
	// OpenPage keeps rows open until a conflicting request needs the
	// bank (classic open-page management). Not evaluated in the paper —
	// provided as an extension for policy-sensitivity studies. Idle ranks
	// still refresh, but rows are never closed speculatively, so
	// precharge power-down only happens behind refreshes.
	//
	// Under OpenPage the activation count of a serialized access stream
	// is analytically predictable: Config.MaxRowHits caps consecutive
	// column accesses per activation (the auto-precharge fires with the
	// capping access), so a run of L same-row accesses costs exactly
	// ceil(L/MaxRowHits) activations — the closed form the tensor-stream
	// oracle (internal/workload.TensorEpochActs) checks end to end.
	OpenPage
)

// PolicyNames spells each Policy once; the flag also takes the names
// without "-close"/"-page".
var PolicyNames = core.Enum[Policy]{
	Names:   []string{"relaxed-close", "restricted-close", "open-page"},
	Aliases: map[string]Policy{"relaxed": RelaxedClose, "restricted": RestrictedClose, "open": OpenPage},
}

// String returns the policy's canonical name.
func (p Policy) String() string { return PolicyNames.Name(p) }

// Set parses a policy name into p (*Policy is a flag.Value).
func (p *Policy) Set(name string) error { return PolicyNames.Set(p, name) }
