package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// documented returns the argument list of every `go run ./cmd/pratrace ...`
// invocation in the docs, code blocks and table cells alike, keyed by
// file:line. An invocation ends at a `#` comment, a backtick, a table or pipe
// bar, a redirection or a command separator; the shell variables of the
// documented loops and `~` take sample values.
func documented(t *testing.T) map[string][]string {
	t.Helper()
	re := regexp.MustCompile("go run \\./cmd/pratrace\\b((?:[ \t]+[^ \t`|#;&<>]+)*)")
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
					t.Errorf("%s:%d: pratrace%s: quoting or a variable without a sample value", file, i+1, m[1])
				}
				out[fmt.Sprintf("%s:%d.%d", file, i+1, j)] = strings.Fields(args)
			}
		}
	}
	return out
}

// TestDocumentedCommandsParse: every `go run ./cmd/pratrace ...` line in the
// docs — the README's recipe table included — must be a command line
// parseArgs accepts and that selects a mode.
func TestDocumentedCommandsParse(t *testing.T) {
	cmds := documented(t)
	if len(cmds) < 5 {
		t.Errorf("found only %d documented pratrace commands; the extraction is broken", len(cmds))
	}
	for where, args := range cmds {
		o, err := parseArgs(newFlagSet(), args)
		if err != nil {
			t.Errorf("%s: pratrace %v: %v", where, args, err)
		} else if o.record == "" && o.replay == "" && o.info == "" {
			t.Errorf("%s: pratrace %v selects no mode", where, args)
		}
	}
}
