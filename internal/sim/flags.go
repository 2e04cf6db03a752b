package sim

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"pradram/internal/dram"
	"pradram/internal/memctrl"
	"pradram/internal/obs"
	"pradram/internal/power"
)

// flagTable is the one binding of command-line flags to Config fields: flag
// name, pointer to the field the flag parses into, help text. The binaries
// register the rows they expose with BindFlags and parse straight into a
// Config; a new knob is its field plus a row here (TestEveryFieldIsDecided
// fails until it has a row or a reason not to).
var flagTable = []struct {
	name   string
	target func(*Config) any
	help   string
}{
	{"workload", func(c *Config) any { return &c.Workload }, "workload set: a benchmark, hammer, tensor or MIXn, or a name[:count],... co-run (see -list)"},
	{"scheme", func(c *Config) any { return &c.Scheme }, "row-activation scheme: " + memctrl.SchemeNames.List()},
	{"policy", func(c *Config) any { return &c.Policy }, "row-buffer policy: " + memctrl.PolicyNames.List()},
	{"dbi", func(c *Config) any { return &c.DBI }, "enable Dirty-Block-Index proactive writeback"},
	{"instr", func(c *Config) any { return &c.InstrPerCore }, "measured instructions per core"},
	{"warmup", func(c *Config) any { return &c.WarmupPerCore }, "warmup instructions per core"},
	{"cores", func(c *Config) any { return &c.ActiveCores }, "active cores"},
	{"seed", func(c *Config) any { return &c.Seed }, "workload seed"},
	{"ecc", func(c *Config) any { return &c.ECC }, "model an x72 ECC DIMM (Section 4.2)"},
	{"noskip", func(c *Config) any { return &c.NoSkip }, "disable event-driven cycle skipping (tick every CPU cycle; results are identical, runs are slower)"},
	{"channels", func(c *Config) any { return &c.Channels }, "memory channels, power of two (0 = controller default; changes address decomposition, hence results)"},

	{"pd-policy", func(c *Config) any { return &c.PDPolicy }, "power-down entry policy: " + memctrl.PDPolicyNames.List()},
	{"pd-timeout", func(c *Config) any { return &c.PDTimeout }, "idle memory cycles before power-down entry (timeout/queue policies)"},
	{"sr-timeout", func(c *Config) any { return &c.SRTimeout }, "idle memory cycles before self-refresh entry (0 = never)"},
	{"pd-slow", func(c *Config) any { return &c.PDSlowExit }, "use slow-exit (DLL-off) precharge power-down: lower IDD2P, tXPDLL exit"},
	{"apd", func(c *Config) any { return &c.APD }, "allow active power-down (CKE low with banks open) under the open-page policy"},
	{"refresh-mode", func(c *Config) any { return &c.RefreshMode }, "refresh management: " + dram.RefreshModeNames.List()},

	{"mit-threshold", func(c *Config) any { return &c.MitThreshold }, "RowHammer Alert/RFM mitigation: per-row activation threshold (0 = off)"},
	{"mit-alert", func(c *Config) any { return &c.MitAlertCycles }, "alert back-off in memory cycles before the RFM issues (0 = default 144)"},

	{"power-cal", func(c *Config) any { return &c.PowerCal }, "report calibrated energy bands: " + strings.Join(power.Calibrations(), " | ") + "[:pct] (empty = nominal only)"},

	{"latbreak", func(c *Config) any { return &c.LatBreak }, "attribute per-request latency to components (queue/bank/timing/refresh/pd/alert/xfer) and report the breakdown and tail percentiles (results are identical)"},
	{"trace-sample", func(c *Config) any { return &c.LatSpanEvery }, "with -trace-out, sample every Nth completed request into the span ring"},

	{"epoch", func(c *Config) any { return &c.Obs.EpochCycles }, "telemetry sampling epoch in DRAM cycles (used with -timeline / -http)"},
	{"events", func(c *Config) any { return &c.Obs.EventLevel }, "structured event trace: " + obs.LevelNames.List()},
}

// BindFlags registers the named flags of the flag table on fs (all of them
// when no name is given). Each parses into the field of cfg it is bound to
// and defaults to the value cfg holds at the call, so a binary states its
// defaults by filling in cfg first. A name the table lacks is a programming
// error and panics.
func BindFlags(fs *flag.FlagSet, cfg *Config, names ...string) {
	bound := 0
	for _, row := range flagTable {
		if len(names) > 0 && !slices.Contains(names, row.name) {
			continue
		}
		bound++
		switch p := row.target(cfg).(type) {
		case *string:
			fs.StringVar(p, row.name, *p, row.help)
		case *bool:
			fs.BoolVar(p, row.name, *p, row.help)
		case *int:
			fs.IntVar(p, row.name, *p, row.help)
		case *int64:
			fs.Int64Var(p, row.name, *p, row.help)
		case *uint64:
			fs.Uint64Var(p, row.name, *p, row.help)
		case flag.Value: // an enumerated knob, spelled by its core.Enum table
			fs.Var(p, row.name, row.help)
		default:
			panic(fmt.Sprintf("sim: flag -%s: no binding for %T", row.name, p))
		}
	}
	if len(names) > 0 && bound != len(names) {
		panic(fmt.Sprintf("sim: flags %q are not all in the flag table", names))
	}
}
