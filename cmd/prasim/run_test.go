package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildPrasim builds the binary under test into a temporary directory.
func buildPrasim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prasim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runPrasim executes the built binary and returns what it printed.
func runPrasim(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("prasim %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String(), errb.String()
}

// TestRunGolden pins the binary's run path end to end on two runs, GUPS and
// mcf: their stdout by digest (tables joined by one blank line, -json
// documents back to back) and each run's -trace-out Perfetto file by digest.
// Regenerate testdata/run.golden with -update after an intended change of
// the report.
func TestRunGolden(t *testing.T) {
	bin := buildPrasim(t)
	var plain, asJSON, traces string
	for i, w := range []string{"GUPS", "mcf"} {
		args := []string{"-workload", w, "-instr", "30000", "-warmup", "40000"}
		out, _ := runPrasim(t, bin, args...)
		js, _ := runPrasim(t, bin, append(args, "-json")...)
		if i > 0 {
			plain += "\n"
		}
		plain, asJSON = plain+out, asJSON+js

		traceOut := filepath.Join(t.TempDir(), "spans.json")
		runPrasim(t, bin, append(args, "-trace-out", traceOut)...)
		b, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		traces += fmt.Sprintf("trace-out %s %x\n", w, sha256.Sum256(b))
	}

	got := fmt.Sprintf("plain %x\njson %x\n", sha256.Sum256([]byte(plain)), sha256.Sum256([]byte(asJSON))) + traces
	const path = "testdata/run.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("run output changed (rerun with -update if intended):\n--- got\n%s--- want\n%s--- stdout\n%s", got, want, plain)
	}
}

// TestBadHTTPAddressFailsBeforeTheRun: -http binds before any system is
// built, so an address that cannot be listened on ends the process with
// exit 1 and one line naming the flag — not a message lost among the
// progress lines of a run that then exits 0.
func TestBadHTTPAddressFailsBeforeTheRun(t *testing.T) {
	var out, errb bytes.Buffer
	cmd := exec.Command(buildPrasim(t), "-workload", "GUPS", "-http", "127.0.0.1:99999")
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("exit %v, want exit status 1", err)
	}
	if !strings.HasPrefix(errb.String(), "prasim: -http: ") || strings.Count(errb.String(), "\n") != 1 {
		t.Errorf("stderr %q, want one line starting \"prasim: -http: \"", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("a report was printed:\n%s", out.String())
	}
}
