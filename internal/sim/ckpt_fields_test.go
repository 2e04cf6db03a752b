package sim

import (
	"reflect"
	"testing"

	"pradram/internal/cpu"
	"pradram/internal/dram"
)

// Checkpoint field classes.
const (
	saved    = "saved"    // Checkpoint writes it, Restore reads it back
	derived  = "derived"  // Restore, or the first pass after it, rebuilds it from saved fields
	excluded = "excluded" // configuration, wiring, statistics, per-tick or per-pass scratch, or a free-list pool
)

// ckptFields classifies every field of every struct a System checkpoint
// reaches, keyed by the type's name as reflect prints it. The walk stops at
// dram.Channel, whose fields internal/dram's own table classifies. A new
// field must be added here, which makes checkpointing it a decision;
// TestRestoreMutationSweep and the bit-identity matrices stay the
// behavioural guards that the saved fields really are read back and the
// derived ones really are rebuilt.
var ckptFields = map[string]map[string]string{
	"sim.System": {
		"cfg":      excluded, // configuration: Restore checks the checkpoint's fingerprint against it
		"ctrl":     saved,
		"hier":     saved,
		"cores":    saved,
		"apps":     excluded, // configuration: workload labels
		"now":      excluded, // per-tick scratch: advance sets it before anything reads it
		"capBase":  derived,  // Restore rebases the capture to the boundary cycle, as Warmup does
		"cap":      excluded, // wiring; the boundary drops its records
		"rec":      excluded, // telemetry
		"ev":       excluded,
		"recShift": excluded, // armed by Measure
		"recNext":  excluded, // armed by Measure
		"ticks":    saved,
		"cal":      excluded, // configuration
		"cycle":    saved,
		"warmed":   derived,  // Restore sets it
		"measured": excluded, // false in every checkpoint: Checkpoint refuses once Measure ran
	},

	"cpu.Core": {
		"ID":         excluded, // configuration
		"cfg":        excluded,
		"gen":        saved,    // through checkpoint.Saver; the walk continues at the concrete type
		"mem":        excluded, // wiring
		"done":       saved,
		"serial":     saved,
		"onDone":     excluded, // wiring: New binds one callback per slot
		"head":       derived,  // RestoreState rotates the ring to start at slot 0
		"tail":       derived,
		"count":      saved,
		"ldqUsed":    derived, // the ROB slots still waiting for their load
		"stqUsed":    saved,
		"loadSerial": saved,
		"lastSlot":   derived, // the in-flight slot holding serial loadSerial-1
		"pending":    saved,
		"hasPending": saved,
		"storeDone":  excluded, // wiring
		"idle":       saved,
		"Retired":    excluded, // statistics, reset by Warmup before a checkpoint
		"Cycles":     excluded,
		"Loads":      excluded,
		"Stores":     excluded,
		"ComputeOps": excluded,
	},
	"cpu.Op": {"Kind": saved, "Addr": saved, "Bytes": saved, "Dep": saved},
	// Every generator is a visitGen; reflection cannot see the state a
	// benchmark keeps in its visit closure, so TestGeneratorCheckpointResumes
	// (internal/workload) is that state's guard.
	"workload.visitGen": {
		"name":    excluded, // configuration
		"rng":     saved,
		"queue":   saved,
		"head":    saved,
		"visit":   excluded, // wiring: built by the benchmark's constructor
		"regs":    saved,
		"streams": saved,
	},
	"workload.RNG":       {"s": saved},
	"workload.seqStream": {"region": excluded, "pos": saved, "strideLines": excluded},

	"cache.Hierarchy": {
		"cfg":         excluded, // configuration
		"mem":         excluded, // wiring
		"l1":          saved,
		"l2":          saved,
		"mshr":        saved,
		"mshrPerCore": derived, // each MSHR entry counts against its first waiter's core
		"lanes":       saved,
		"wbs":         saved,
		"retryFills":  saved,    // as positions in mshr
		"freeMiss":    excluded, // free-list pool
		"dbi":         saved,
		"Events":      excluded, // wiring
		"now":         excluded, // per-tick scratch: Tick sets it before anything reads it
		"Stats":       excluded, // statistics, reset at the warmup boundary
	},
	"cache.level": {
		"tags":    saved,
		"dirty":   saved,
		"lasts":   saved,
		"ways":    excluded, // geometry
		"setMask": excluded,
		"tick":    derived, // the largest of lasts
	},
	"cache.missEntry": {
		"id":      saved,
		"waiters": saved,
		"issued":  saved,
		"next":    excluded, // free-list link
		"onFill":  excluded, // wiring: bound to the entry when it is made
	},
	"cache.waiter":    {"done": saved, "storeMask": saved, "core": saved},
	"cache.lane":      {"buf": saved, "head": derived, "n": saved}, // buf from head, in delivery order; restore refills from slot 0
	"cache.event":     {"at": saved, "done": saved},
	"cache.pendingWB": {"id": saved, "dirty": saved},
	"core.Done": {
		"Fn":  derived, // rebound from Tag through the restore resolvers
		"Tag": saved,
	},
	"core.DoneTag": {"Kind": saved, "Core": saved, "Serial": saved}, // a fill tag's Core is always 0, so the controller omits it

	"memctrl.Controller": {
		"cfg":       excluded, // configuration
		"am":        excluded,
		"chans":     saved,
		"lastMem":   saved,
		"crossing":  excluded,
		"nextMemAt": derived,  // CPUAt(lastMem+1)
		"minWake":   derived,  // settleWake, as after every DRAM tick
		"stats":     excluded, // statistics: every channel's totals
		"dev":       excluded,
	},
	"memctrl.chanCtl": {
		"cfg":              excluded, // configuration
		"clk":              excluded,
		"ch":               saved,    // dram.Channel: classified by internal/dram's table
		"acc":              excluded, // energy is a statistic
		"am":               excluded,
		"idx":              excluded,
		"requestEngine":    saved, // the engines' fields are classified below
		"refreshEngine":    saved,
		"lowPowerEngine":   saved,
		"mitigationEngine": saved,
		"bound":            excluded, // per-pass scratch: reset at the top of every pass
		"running":          excluded,
		"nextWake":         saved,
		"ev":               excluded, // wiring
		"scope":            excluded,
		"latHistBank":      excluded, // statistics (latency attribution)
		"spans":            excluded,
		"spanHead":         excluded,
		"spanSeq":          excluded,
		"stats":            excluded, // the controller's, shared by every channel
	},
	"memctrl.requestEngine": {
		"banks":     saved,
		"seq":       derived, // RestoreState re-pushes the queues in file order
		"n":         derived,
		"nonEmpty":  derived,
		"rankCount": derived,
		"rankBanks": excluded, // geometry
		"stale":     derived,  // RestoreState marks every bank stale
		"colCand":   derived,  // settle rebuilds the stale banks' decisions
		"closeCand": derived,
		"fhCand":    derived,
		"terms":     excluded, // per-pass scratch
		"termsOK":   excluded,
		"drain":     saved,
		"forwards":  saved,
		"freeReq":   excluded, // free-list pool
	},
	"memctrl.bankQ": {
		"rank":    excluded, // geometry
		"bank":    excluded,
		"q":       saved,
		"same":    derived, // push
		"hits":    saved,
		"colPos":  derived, // settle
		"act":     derived,
		"colSeq":  derived,
		"headSeq": derived,
	},
	"memctrl.request": {
		"kind":      saved,
		"loc":       saved,
		"seq":       derived, // push
		"byteMask":  saved,
		"wordMask":  derived, // restoreReq projects byteMask as Write does
		"arrive":    saved,
		"done":      saved,
		"activated": saved,
		"falseHit":  saved,
		"mark":      saved,
		"brk":       saved,
		"nextFree":  excluded, // free-list link
	},
	"memctrl.Loc": {"Channel": saved, "Rank": saved, "Bank": saved, "Row": saved, "Col": saved},
	// Per-pass scratch: issueRefresh sets every rank's flag before a pass
	// reads one, and all are false while no rank is due; restore clears them.
	"memctrl.refreshEngine": {"refPending": excluded},
	// lastWork is the cycle each rank last emptied (stamped by the column
	// that empties it), the idle clock the power-down timeouts count from.
	"memctrl.lowPowerEngine":   {"lastWork": saved},
	"memctrl.mitigationEngine": {"rfmPending": saved, "rfmRank": saved, "rfmBank": saved, "alertUntil": saved},
}

// TestEveryCheckpointFieldIsClassified walks from System through every
// saved or derived field — into a generator through the concrete type a
// built System holds, and not into dram.Channel — and fails naming any
// field ckptFields does not classify, any struct type it reaches that
// ckptFields does not list, and any entry that names no field or a type
// nothing reaches.
func TestEveryCheckpointFieldIsClassified(t *testing.T) {
	t.Parallel()
	s, err := New(quickCheckpointCfg("GUPS"))
	if err != nil {
		t.Fatal(err)
	}
	impls := map[reflect.Type]reflect.Type{
		reflect.TypeOf((*cpu.Generator)(nil)).Elem(): reflect.TypeOf(s.cores[0].Generator()),
	}
	reached := make(map[string]bool)
	var walk func(typ reflect.Type, from string)
	walk = func(typ reflect.Type, from string) {
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array || typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() == reflect.Interface {
			impl, ok := impls[typ]
			if !ok {
				t.Errorf("%s (reached through %s) is an interface: name the concrete type a System holds in impls", typ, from)
				return
			}
			typ = impl
			for typ.Kind() == reflect.Pointer {
				typ = typ.Elem()
			}
		}
		if typ.Kind() != reflect.Struct || typ.NumField() == 0 || typ == reflect.TypeOf(dram.Channel{}) || reached[typ.String()] {
			return
		}
		reached[typ.String()] = true
		classes, ok := ckptFields[typ.String()]
		if !ok {
			t.Errorf("%s (reached through %s) is not in ckptFields: classify its fields", typ, from)
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			switch classes[name] {
			case saved, derived:
				walk(typ.Field(i).Type, typ.String()+"."+name)
			case excluded:
			default:
				t.Errorf("%s.%s is not classified: add it to ckptFields as saved, derived or excluded (and save it in its package's state.go if it is state)", typ, name)
			}
		}
		for name := range classes {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("ckptFields names %s.%s, which is not a field", typ, name)
			}
		}
	}
	walk(reflect.TypeOf(System{}), "System")
	for name := range ckptFields {
		if !reached[name] {
			t.Errorf("ckptFields lists %s, which no saved or derived field reaches", name)
		}
	}
}
