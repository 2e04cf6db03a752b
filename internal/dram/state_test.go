package dram

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"pradram/internal/checkpoint"
	"pradram/internal/core"
	"pradram/internal/power"
)

// Checkpoint field classes.
const (
	saved    = "saved"    // SaveState writes it, RestoreState reads it back
	derived  = "derived"  // RestoreState recomputes it from saved fields
	excluded = "excluded" // configuration, wiring or statistics: never checkpointed
)

// ckptFields classifies every field of every struct a channel checkpoint
// covers. A new field must be added here, which makes checkpointing it a
// decision; TestRestoreMutationSweep (internal/sim) stays the behavioural
// guard that the saved fields really are read back.
var ckptFields = map[reflect.Type]map[string]string{
	reflect.TypeOf(Channel{}): {
		"T":             excluded, // configuration: the restoring channel is built with it
		"G":             excluded,
		"Acc":           excluded, // energy is a statistic, reset at the warmup boundary
		"NoWeightedFAW": excluded,
		"SlowExitPD":    excluded,
		"RefMode":       excluded,
		"Trace":         excluded, // wiring
		"ranks":         saved,
		"cmdFree":       saved,
		"busFree":       saved,
		"busDir":        saved,
		"busRank":       saved,
		"acctUpTo":      saved,
		"tck":           excluded, // configuration: T's tCK in ns, set by NewChannel
		"rowCtr":        saved,
		"Stats":         excluded, // statistics, reset at the warmup boundary
	},
	reflect.TypeOf(rankState{}): {
		"banks":       saved,
		"rrdAllowed":  saved,
		"colAllowed":  saved,
		"rdAfterWr":   saved,
		"faw":         saved,
		"refUntil":    saved,
		"nextRefresh": saved,
		"refBank":     saved,
		"pd":          saved,
		"pdEnteredAt": saved,
		"pdExit":      saved,
		"pdReady":     saved,
		"openCount":   derived, // the number of open banks
		"bgFrom":      saved,
	},
	reflect.TypeOf(bankState{}): {
		"open":       saved,
		"row":        saved,
		"mask":       saved,
		"actAllowed": saved,
		"rdAllowed":  saved,
		"wrAllowed":  saved,
		"preAllowed": saved,
	},
	reflect.TypeOf(fawEntry{}): {
		"t": saved,
		"w": saved,
	},
}

// TestEveryCheckpointFieldIsClassified walks from Channel through every
// saved or derived field and fails naming any field that ckptFields does
// not classify, any struct type it reaches that ckptFields does not list,
// and any entry that names no field or a type nothing reaches.
func TestEveryCheckpointFieldIsClassified(t *testing.T) {
	t.Parallel()
	reached := make(map[reflect.Type]bool)
	var walk func(typ reflect.Type, from string)
	walk = func(typ reflect.Type, from string) {
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array || typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || reached[typ] {
			return
		}
		reached[typ] = true
		classes, ok := ckptFields[typ]
		if !ok {
			t.Errorf("%s (reached through %s) is not in ckptFields: classify its fields", typ, from)
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			switch classes[name] {
			case saved, derived:
				walk(typ.Field(i).Type, typ.Name()+"."+name)
			case excluded:
			default:
				t.Errorf("%s.%s is not classified: add it to ckptFields as saved, derived or excluded (and save it in state.go if it is state)", typ.Name(), name)
			}
		}
		for name := range classes {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("ckptFields names %s.%s, which is not a field", typ.Name(), name)
			}
		}
	}
	walk(reflect.TypeOf(Channel{}), "Channel")
	for typ := range ckptFields {
		if !reached[typ] {
			t.Errorf("ckptFields lists %s, which no saved or derived field reaches", typ)
		}
	}
}

// TestCheckpointRoundTripsClassifiedFields restores a used channel's
// checkpoint into a fresh one: every saved or derived field of Channel must
// come back equal, and only its excluded fields may differ.
func TestCheckpointRoundTripsClassifiedFields(t *testing.T) {
	t.Parallel()
	src := newTestChannel(t)
	src.TrackRows()
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 2000; i++ {
		r, b := rng.Intn(src.G.Ranks), rng.Intn(src.G.Banks)
		src.Wake(now, r)
		if _, _, open := src.OpenRow(r, b); open {
			now = src.PreReadyAt(now, r, b)
			if err := src.Precharge(now, r, b); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		} else {
			mask := core.Mask(rng.Intn(255) + 1)
			now = src.ActReadyAt(now, r, b, mask, false)
			if err := src.Activate(now, r, b, rng.Intn(64), mask, false); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			now = src.WriteReadyAt(now, r, b, src.T.TBURST)
			if _, err := src.Write(now, r, b, src.T.TBURST, 1, false); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if rng.Intn(3) == 0 && !src.EnterActivePowerDown(now, r) {
			src.EnterPowerDown(now, r)
		}
		src.AdvanceTo(now)
	}
	var w checkpoint.Writer
	src.SaveState(&w)
	dst, err := NewChannel(src.T, src.G, power.NewAccumulator())
	if err != nil {
		t.Fatal(err)
	}
	dst.TrackRows()
	rd := checkpoint.NewReader(w.Bytes())
	commit, err := dst.RestoreState(rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
	commit()
	a, b := reflect.ValueOf(src).Elem(), reflect.ValueOf(dst).Elem()
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		if ckptFields[a.Type()][name] != excluded && !reflect.DeepEqual(field(a, i), field(b, i)) {
			t.Errorf("Channel.%s differs after a checkpoint round trip", name)
		}
	}
}

// field returns field i of the addressable struct v, exported or not.
func field(v reflect.Value, i int) any {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}
