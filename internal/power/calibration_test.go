package power

import (
	"math"
	"strings"
	"testing"
)

func TestCalNoneIsIdentity(t *testing.T) {
	var b Breakdown
	for i := range b {
		b[i] = float64(i+1) * 100
	}
	band := CalNone().Total(b)
	if band.Min != b.Total() || band.Nom != b.Total() || band.Max != b.Total() {
		t.Fatalf("CalNone band %+v != point %v", band, b.Total())
	}
}

func TestBandOrdering(t *testing.T) {
	var b Breakdown
	for i := range b {
		b[i] = 1000
	}
	for _, cal := range []Calibration{CalNone(), CalVendor(), CalGhose(), CalGhose().WithSigma(0.05)} {
		band := cal.Total(b)
		if !(band.Min <= band.Nom && band.Nom <= band.Max) {
			t.Errorf("%s: band not ordered: %+v", cal.Name, band)
		}
		for c := Component(0); c < NumComponents; c++ {
			cb := cal.Component(b, c)
			if !(cb.Min <= cb.Nom && cb.Nom <= cb.Max) {
				t.Errorf("%s/%s: component band not ordered: %+v", cal.Name, c, cb)
			}
		}
	}
}

func TestGhoseDirectionality(t *testing.T) {
	// The Ghose corrections must preserve the paper's measured directions:
	// activate/precharge and background nominal corrections below 1 (datasheet
	// IDDs are worst-case), read/write bands reaching above 1 (data-dependent).
	c := CalGhose()
	if c.Factors[CompActPre].Nom >= 1 {
		t.Errorf("ACT-PRE nominal correction should be < 1, got %v", c.Factors[CompActPre].Nom)
	}
	if c.Factors[CompBG].Nom >= 1 {
		t.Errorf("BG nominal correction should be < 1, got %v", c.Factors[CompBG].Nom)
	}
	if c.Factors[CompRd].Max <= 1 || c.Factors[CompWr].Max <= 1 {
		t.Errorf("RD/WR max corrections should exceed 1, got %v / %v",
			c.Factors[CompRd].Max, c.Factors[CompWr].Max)
	}
}

func TestSigmaWidensBand(t *testing.T) {
	var b Breakdown
	b[CompActPre] = 1000
	narrow := CalGhose().Total(b)
	wide := CalGhose().WithSigma(0.10).Total(b)
	if !(wide.Min < narrow.Min && wide.Max > narrow.Max) {
		t.Fatalf("sigma did not widen the band: narrow %+v wide %+v", narrow, wide)
	}
	if wide.Nom != narrow.Nom {
		t.Fatalf("sigma moved the nominal: %v -> %v", narrow.Nom, wide.Nom)
	}
}

func TestTotalSumsComponents(t *testing.T) {
	var b Breakdown
	for i := range b {
		b[i] = float64(i*i + 1)
	}
	cal := CalGhose().WithSigma(0.03)
	var want Band
	for c := Component(0); c < NumComponents; c++ {
		cb := cal.Component(b, c)
		want.Min += cb.Min
		want.Nom += cb.Nom
		want.Max += cb.Max
	}
	got := cal.Total(b)
	for _, pair := range [][2]float64{{got.Min, want.Min}, {got.Nom, want.Nom}, {got.Max, want.Max}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Fatalf("Total %+v != summed components %+v", got, want)
		}
	}
}

func TestParseCalibration(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		name  string
		sigma float64
		ok    bool
	}{
		{"none", "none", 0, true},
		{"", "none", 0, true},
		{"vendor", "vendor", 0, true},
		{"ghose", "ghose", 0, true},
		{"GHOSE", "ghose", 0, true},
		{"ghose:5", "ghose", 0.05, true},
		{"vendor:12.5", "vendor", 0.125, true},
		{"bogus", "", 0, false},
		{"ghose:-1", "", 0, false},
		{"ghose:abc", "", 0, false},
	} {
		c, err := ParseCalibration(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("ParseCalibration(%q) err = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if c.Name != tc.name || math.Abs(c.Sigma-tc.sigma) > 1e-12 {
			t.Errorf("ParseCalibration(%q) = {%s sigma=%v}, want {%s sigma=%v}",
				tc.spec, c.Name, c.Sigma, tc.name, tc.sigma)
		}
	}
}

// TestCalibrationPresetsNamedOnce holds the preset table to its three
// readers: every listed name parses to the preset of that Name, "" is
// "none", and an unknown name's error lists every preset.
func TestCalibrationPresetsNamedOnce(t *testing.T) {
	names := Calibrations()
	if len(names) != len(calPresets) {
		t.Fatalf("Calibrations() lists %d presets, the table has %d", len(names), len(calPresets))
	}
	for _, name := range names {
		c, err := ParseCalibration(name)
		if err != nil || c.Name != name {
			t.Errorf("ParseCalibration(%q) = %q, %v", name, c.Name, err)
		}
	}
	if c, err := ParseCalibration(""); err != nil || c.Name != "none" {
		t.Errorf(`ParseCalibration("") = %q, %v; want none`, c.Name, err)
	}
	_, err := ParseCalibration("nosuch:5")
	if err == nil {
		t.Fatal("unknown preset parsed")
	}
	if want := strings.Join(names, ", "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the presets %q", err, want)
	}
}

func TestBackgroundStatePowers(t *testing.T) {
	// The five low-power background states must order by depth.
	a := NewAccumulator()
	const ns = 1000
	energyOf := func(s RankState) float64 {
		a.Reset()
		a.Background(s, ns)
		return a.Component(CompBG)
	}
	act := energyOf(RankActive)
	pre := energyOf(RankPrecharged)
	apd := energyOf(RankActivePD)
	ppd := energyOf(RankPoweredDown)
	sr := energyOf(RankSelfRefresh)
	slow := energyOf(RankPoweredDownSlow)
	if !(act > pre && pre > apd && apd > ppd && ppd > sr && sr > slow) {
		t.Fatalf("state powers not ordered: act=%v pre=%v apd=%v ppd=%v sr=%v slow=%v",
			act, pre, apd, ppd, sr, slow)
	}
}
