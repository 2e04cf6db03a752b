package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed names the functions under internal/ that no program calls
// but that stay, each with the test that needs it.
var reachAllowed = map[string]string{
	// Closed-form reference oracles the full-stack tests compare against,
	// and the probes that read the simulated counter tables they are
	// compared with (internal/sim/hammer_oracle_test.go,
	// tensor_oracle_test.go).
	"workload.HammerCounts":        "TestHammerAnalyticOracle",
	"workload.TensorCounts":        "TestTensorAnalyticOracle",
	"memctrl.Controller.RowCounts": "TestHammerAnalyticOracle",
	"memctrl.Controller.RowSpill":  "TestHammerAnalyticOracle",
	// The only way the package dram_test referee learns where the measured
	// window starts: the controller's DRAM clock after Warmup
	// (internal/dram/checker_stack_test.go).
	"memctrl.Controller.MemCycle": "TestCheckerOverWholeStackRuns",
}

// TestEveryInternalFuncIsReached fails when a top-level function or method
// declared under internal/ is never referenced by name from a non-test file
// of the module (bench/ included) outside its own declaration. Exported API
// that only tests call belongs in the tests.
//
// The check is name-based: any identifier with the same name counts as a
// reference, so a dead method that shares its name with a live one (or with
// a field) goes unnoticed.
func TestEveryInternalFuncIsReached(t *testing.T) {
	type decl struct {
		key      string // package.Name or package.Type.Name
		name     string
		from, to token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string][]token.Pos{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && name != "." && name != "..") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "../../internal/")
		names := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if n := fd.Name.Name; internal && n != "init" && n != "_" {
				key := f.Name.Name + "." + n
				if r := recvName(fd); r != "" {
					key = f.Name.Name + "." + r + "." + n
				}
				decls = append(decls, decl{key, n, fd.Pos(), fd.End()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		reached := false
		for _, p := range refs[d.name] {
			if p < d.from || p >= d.to {
				reached = true
				break
			}
		}
		_, allowed := reachAllowed[d.key]
		at := fset.Position(d.from).String() + ": " + d.key
		switch {
		case !reached && !allowed:
			dead = append(dead, at+" is referenced by no non-test file")
		case reached && allowed:
			dead = append(dead, at+" is reached; drop its reachAllowed entry")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	if len(decls) < 500 {
		t.Fatalf("found only %d declarations under internal/: is the walk rooted at the module?", len(decls))
	}
}
