package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunGolden pins the binary end to end: -record a small GUPS trace,
// then -info and -replay -compare over it. Each mode's stdout is digested
// with the trace's path replaced by a placeholder, so the golden does not
// depend on where the file was written. Regenerate testdata/run.golden with
// -update after an intended change of the report. The split -record
// reports must be the one -info reads back from the file's index.
func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pratrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "gups.trace")
	var got strings.Builder
	split := map[string][]string{}
	splitRE := regexp.MustCompile(`(\d+)(?: requests)? \((\d+) reads, (\d+) writes\)`)
	for _, mode := range [][]string{
		{"-record", path, "-workload", "GUPS", "-instr", "20000", "-warmup", "20000"},
		{"-info", path},
		{"-replay", path, "-compare"},
	} {
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, mode...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("pratrace %s: %v\n%s", strings.Join(mode, " "), err, errb.String())
		}
		stdout := strings.ReplaceAll(out.String(), path, "TRACE")
		if m := splitRE.FindStringSubmatch(stdout); m != nil {
			split[mode[0]] = m[1:]
		}
		fmt.Fprintf(&got, "%s %x\n", mode[0], sha256.Sum256([]byte(stdout)))
	}
	if rec, info := split["-record"], split["-info"]; rec == nil || fmt.Sprint(rec) != fmt.Sprint(info) {
		t.Errorf("-record reports records, reads, writes %v; -info reads back %v", rec, info)
	}
	const golden = "testdata/run.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("run output changed (rerun with -update if intended):\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
