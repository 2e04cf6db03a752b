package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"pradram/internal/sim"
)

// documented returns the argument list of every `go run ./cmd/praexp ...`
// invocation in the docs, code blocks and table cells alike, keyed by
// file:line. An invocation ends at a `#` comment, a backtick, a table or pipe
// bar, a redirection or a command separator; the shell variables of the
// documented loops and `~` take sample values.
func documented(t *testing.T) map[string][]string {
	t.Helper()
	re := regexp.MustCompile("go run \\./cmd/praexp\\b((?:[ \t]+[^ \t`|#;&<>]+)*)")
	sample := strings.NewReplacer("$t", "4", "$cap", "64", "$ch", "2", "$w", "TensorKCP", "~", "/home/user")
	out := map[string][]string{}
	for _, file := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for j, m := range re.FindAllStringSubmatch(line, -1) {
				args := sample.Replace(m[1])
				if strings.ContainsAny(args, "$\"'") {
					t.Errorf("%s:%d: praexp%s: quoting or a variable without a sample value", file, i+1, m[1])
				}
				out[fmt.Sprintf("%s:%d.%d", file, i+1, j)] = strings.Fields(args)
			}
		}
	}
	return out
}

// TestDocumentedCommandsParse: every `go run ./cmd/praexp ...` line in the
// docs — the README's recipe table included — must be a command line
// parseArgs accepts, naming an experiment that exists.
func TestDocumentedCommandsParse(t *testing.T) {
	cmds := documented(t)
	if len(cmds) < 10 {
		t.Errorf("found only %d documented praexp commands; the extraction is broken", len(cmds))
	}
	for where, args := range cmds {
		o, err := parseArgs(newFlagSet(), args)
		if err == nil && o.exp != "all" {
			_, err = sim.ExperimentByID(o.exp)
		}
		if err != nil {
			t.Errorf("%s: praexp %v: %v", where, args, err)
		}
	}
}
