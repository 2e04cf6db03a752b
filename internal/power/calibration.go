package power

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Factor is a multiplicative correction applied to one energy component,
// expressed as a min/nominal/max band. Nom is the best single-number
// correction for a typical device; Min and Max bound the plausible spread
// across devices, vendors, and data patterns. A Factor of {1, 1, 1} leaves
// the component at its datasheet-derived value.
type Factor struct {
	Min, Nom, Max float64
}

// Unit is the identity correction factor.
var Unit = Factor{Min: 1, Nom: 1, Max: 1}

// Band is a min/nominal/max energy (or power) triple produced by applying a
// Calibration to a Breakdown. Units follow the input: pJ when applied to
// energies, mW when applied to powers.
type Band struct {
	Min, Nom, Max float64
}

// Scale returns the band multiplied by k (for unit conversions such as
// pJ -> mW over a runtime).
func (b Band) Scale(k float64) Band {
	return Band{Min: b.Min * k, Nom: b.Nom * k, Max: b.Max * k}
}

// Spread returns the half-width of the band relative to its nominal value
// ((Max-Min)/2 / Nom), a scalar summary of how uncertain the estimate is.
// It returns 0 when Nom is 0.
func (b Band) Spread() float64 {
	if b.Nom == 0 {
		return 0
	}
	return (b.Max - b.Min) / 2 / b.Nom
}

// Calibration is a set of per-component correction factors layered over the
// datasheet power model. It is applied to finished Breakdowns only — after
// simulation — so a calibration can never perturb simulated timing or
// state: the same run re-reported under a different calibration stays
// bit-identical in everything but the energy band.
//
// The built-in presets follow the methodology of Ghose et al., "What Your
// DRAM Power Models Are Not Telling You: Lessons from a Detailed
// Experimental Study" (SIGMETRICS 2018, arXiv:1807.05102), which measured
// real DDR3L devices against vendor-model predictions: datasheet IDD values
// are worst-case and overstate idle/activate power, while read/write power
// depends on data patterns and can exceed the datasheet figure.
type Calibration struct {
	// Name identifies the preset ("none", "vendor", "ghose").
	Name string
	// Factors holds one correction band per energy component.
	Factors [NumComponents]Factor
	// Sigma is an extra symmetric per-device variation fraction widening
	// every component band (Min *= 1-Sigma, Max *= 1+Sigma). It models
	// process variation between individual devices of the same part
	// number, on top of the preset's vendor/model spread.
	Sigma float64
}

// CalNone returns the identity calibration: every factor is {1, 1, 1}, so
// the band degenerates to the datasheet point estimate.
func CalNone() Calibration {
	c := Calibration{Name: "none"}
	for i := range c.Factors {
		c.Factors[i] = Unit
	}
	return c
}

// CalVendor returns a calibration modeling inter-vendor spread only: the
// nominal stays at the datasheet value (1.0) while min/max span the
// current draw Ghose et al. observed across the three major DRAM vendors
// for the same speed bin — roughly +/-20% on dynamic array power, +/-15%
// on I/O and termination, and +/-10% on background and refresh.
func CalVendor() Calibration {
	c := Calibration{Name: "vendor"}
	dyn := Factor{Min: 0.80, Nom: 1.00, Max: 1.20}
	io := Factor{Min: 0.85, Nom: 1.00, Max: 1.15}
	bg := Factor{Min: 0.90, Nom: 1.00, Max: 1.10}
	c.Factors[CompActPre] = dyn
	c.Factors[CompRd] = dyn
	c.Factors[CompWr] = dyn
	c.Factors[CompRdIO] = io
	c.Factors[CompWrODT] = io
	c.Factors[CompRdTerm] = io
	c.Factors[CompWrTerm] = io
	c.Factors[CompBG] = bg
	c.Factors[CompRef] = bg
	return c
}

// CalGhose returns the measurement-informed calibration following the
// directional findings of Ghose et al. (arXiv:1807.05102): real devices
// draw markedly less activate/precharge and standby current than the
// worst-case datasheet IDD values (nominal corrections below 1.0), while
// read — and especially write — array power varies with the data pattern
// and can exceed the datasheet figure (bands reaching above 1.0). The
// numbers are rounded characterizations of their published DDR3L results,
// not a device-specific fit; see the EXPERIMENTS.md accuracy caveats.
func CalGhose() Calibration {
	c := Calibration{Name: "ghose"}
	c.Factors[CompActPre] = Factor{Min: 0.60, Nom: 0.80, Max: 1.00}
	c.Factors[CompRd] = Factor{Min: 0.85, Nom: 1.10, Max: 1.45}
	c.Factors[CompWr] = Factor{Min: 0.80, Nom: 1.05, Max: 1.35}
	c.Factors[CompRdIO] = Factor{Min: 0.90, Nom: 1.00, Max: 1.10}
	c.Factors[CompWrODT] = Factor{Min: 0.90, Nom: 1.00, Max: 1.10}
	c.Factors[CompRdTerm] = Factor{Min: 0.90, Nom: 1.00, Max: 1.10}
	c.Factors[CompWrTerm] = Factor{Min: 0.90, Nom: 1.00, Max: 1.10}
	c.Factors[CompBG] = Factor{Min: 0.70, Nom: 0.90, Max: 1.00}
	c.Factors[CompRef] = Factor{Min: 0.75, Nom: 0.95, Max: 1.05}
	return c
}

// WithSigma returns a copy of the calibration with the per-device variation
// fraction set (0.05 widens every band by +/-5%). Negative values are
// clamped to 0.
func (c Calibration) WithSigma(sigma float64) Calibration {
	if sigma < 0 {
		sigma = 0
	}
	c.Sigma = sigma
	return c
}

// factor returns component i's band with the device sigma folded in.
func (c Calibration) factor(i Component) Factor {
	f := c.Factors[i]
	if c.Sigma > 0 {
		f.Min *= 1 - c.Sigma
		f.Max *= 1 + c.Sigma
	}
	return f
}

// Component returns the calibrated band of one component of b.
func (c Calibration) Component(b Breakdown, comp Component) Band {
	if comp < 0 || comp >= NumComponents {
		return Band{}
	}
	f := c.factor(comp)
	v := b[comp]
	return Band{Min: v * f.Min, Nom: v * f.Nom, Max: v * f.Max}
}

// Total returns the calibrated band of b's total energy: each component is
// scaled by its own factor band and the extremes are summed. Summing
// per-component extremes assumes the component errors can align in the
// worst case, so Total is a conservative (widest) band.
func (c Calibration) Total(b Breakdown) Band {
	var t Band
	for i := Component(0); i < NumComponents; i++ {
		cb := c.Component(b, i)
		t.Min += cb.Min
		t.Nom += cb.Nom
		t.Max += cb.Max
	}
	return t
}

// calPresets is the one table of built-in presets, in listing order; a
// preset's Name is its spelling, so ParseCalibration, Calibrations and the
// flag help all read it here.
var calPresets = []func() Calibration{CalNone, CalVendor, CalGhose}

// Calibrations lists the built-in preset names accepted by
// ParseCalibration.
func Calibrations() []string {
	names := make([]string, len(calPresets))
	for i, preset := range calPresets {
		names[i] = preset().Name
	}
	return names
}

// ParseCalibration resolves a calibration spec: a preset name ("none",
// "vendor", "ghose"; "" is "none"), optionally suffixed with ":P" where P is
// a per-device variation percentage, e.g. "ghose:5" for the Ghose preset
// widened by +/-5% device sigma.
func ParseCalibration(spec string) (Calibration, error) {
	name, sig, hasSigma := strings.Cut(spec, ":")
	preset := strings.ToLower(strings.TrimSpace(name))
	if preset == "" {
		preset = "none"
	}
	i := slices.Index(Calibrations(), preset)
	if i < 0 {
		return Calibration{}, fmt.Errorf("unknown power calibration %q (want one of %s)",
			name, strings.Join(Calibrations(), ", "))
	}
	c := calPresets[i]()
	if hasSigma {
		pct, err := strconv.ParseFloat(strings.TrimSpace(sig), 64)
		if err != nil || pct < 0 || pct > 100 {
			return Calibration{}, fmt.Errorf("bad device sigma %q in calibration spec %q (want a percentage 0..100)", sig, spec)
		}
		c = c.WithSigma(pct / 100)
	}
	return c, nil
}
