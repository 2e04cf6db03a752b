package sim

import (
	"sort"
	"strings"
	"testing"
)

// TestRunKeysGolden pins the run-key strings of every experiment's key set.
// The strings are the memo keys and — with the budget and ModelVersion —
// the on-disk result cache's file names, so a changed string silently
// orphans every -cache directory; a refactor of runKey must leave this file
// byte-identical (go test ./internal/sim -run RunKeysGolden -update only
// when an experiment's configuration set is meant to change).
func TestRunKeysGolden(t *testing.T) {
	seen := make(map[string]bool)
	var keys []string
	for _, e := range Experiments() {
		if e.Keys == nil {
			continue
		}
		for _, k := range e.Keys() {
			if s := k.String(); !seen[s] {
				seen[s] = true
				keys = append(keys, s)
			}
		}
	}
	sort.Strings(keys)
	checkGolden(t, "runkeys.golden", strings.Join(keys, "\n")+"\n")
}
