package sim

import (
	"sort"
	"strings"
	"testing"
)

// TestRunKeysGolden pins the run-key strings of every experiment's run set
// (the runs its declaration pass reads). The strings are the memo keys, so
// a changed set is a changed campaign: a refactor of runKey must leave this
// file byte-identical (go test ./internal/sim -run RunKeysGolden -update
// only when an experiment's configuration set is meant to change).
func TestRunKeysGolden(t *testing.T) {
	seen := make(map[string]bool)
	var keys []string
	for _, e := range Experiments() {
		for _, k := range e.runs() {
			if s := k.String(); !seen[s] {
				seen[s] = true
				keys = append(keys, s)
			}
		}
	}
	sort.Strings(keys)
	checkGolden(t, "runkeys.golden", strings.Join(keys, "\n")+"\n")
}
