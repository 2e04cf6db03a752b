package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pradram/internal/stats"
)

// compareReports judges report b against report a, one row per workload
// and metric: an end-to-end metric may be worse than a's by at most its
// bound in the declaration (BENCHMARK.json); counts, simulated values and digests must be
// equal; per-layer host times are shown for reading, not judged (they
// have no bound). Any breach makes the exit code non-zero.
func compareReports(declPath, pathA, pathB string, stdout, stderr io.Writer) int {
	decl, err := loadDeclaration(declPath)
	var a, b report
	if err == nil {
		a, err = loadReport(pathA)
	}
	if err == nil {
		b, err = loadReport(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bounds := make(map[string]float64)
	for _, d := range decl.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(stdout, "note: seeds %d/%d, quick %v/%v: simulated values are not expected to match\n", a.Seed, b.Seed, a.Quick, b.Quick)
	}

	byName := make(map[string]workloadReport)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	breaches := 0
	row := func(workload, metric, verdict string, va, vb float64, note string) {
		if verdict == "BREACH" {
			breaches++
		}
		fmt.Fprintf(stdout, "%-24s %-34s %14.6g %14.6g  %-7s %s\n", workload, metric, va, vb, verdict, note)
	}
	fmt.Fprintf(stdout, "%-24s %-34s %14s %14s  %-7s %s\n", "workload", "metric", "a", "b", "verdict", "difference")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			row(wa.Name, "failed operations", "BREACH", float64(wa.Failed), float64(wb.Failed), "")
		}
		verdict, note := "ok", "equal"
		if wa.Digest != wb.Digest {
			verdict, note = "BREACH", fmt.Sprintf("digest %.12s vs %.12s", wa.Digest, wb.Digest)
		}
		row(wa.Name, "digest", verdict, 0, 0, note)

		var names []string
		for name := range wa.Metrics {
			if _, ok := wb.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := wa.Metrics[name].Value, wb.Metrics[name].Value
			d := defs[name]
			worse := stats.Ratio(vb-va, va) // relative change in the worsening direction
			if d.better == "higher" {
				worse = -worse
			}
			bound, bounded := bounds[name]
			switch {
			case d.exact && va != vb:
				row(wa.Name, name, "BREACH", va, vb, "must repeat exactly")
			case d.exact:
				row(wa.Name, name, "ok", va, vb, "equal")
			case bounded && worse > bound:
				row(wa.Name, name, "BREACH", va, vb, fmt.Sprintf("%+.1f%% worse, bound %.0f%%", 100*worse, 100*bound))
			case bounded:
				row(wa.Name, name, "ok", va, vb, fmt.Sprintf("%+.1f%% worse, bound %.0f%%", 100*worse, 100*bound))
			default:
				row(wa.Name, name, "info", va, vb, fmt.Sprintf("%+.1f%% worse", 100*worse))
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "no breach")
	return 0
}

func loadReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
