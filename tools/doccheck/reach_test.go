package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	// and the probe that reads the simulated counter tables they are
	// compared with (internal/sim/hammer_oracle_test.go,
	// tensor_oracle_test.go).
	"workload.HammerCounts":        "TestHammerAnalyticOracle",
	"workload.TensorCounts":        "TestTensorAnalyticOracle",
	"memctrl.Controller.RowCounts": "TestHammerAnalyticOracle",
	// The materialized replay the streaming decoder must match record for
	// record (internal/trace/v2_test.go, internal/sim/mix_test.go).
	"trace.Trace.Stream": "TestReplayStreamIdentity",
	// The package dram_test checker reaches the controller, and through it
	// where the measured window starts, only through the System: the
	// controller's DRAM clock after Warmup
	// (internal/dram/checker_stack_test.go).
	"sim.System.Controller":       "TestCheckerOverWholeStackRuns",
	"memctrl.Controller.MemCycle": "TestCheckerOverWholeStackRuns",
}

// modulePath is the import path prefix of this module's packages.
const modulePath = "pradram"

// moduleChecker type-checks the module's packages from their non-test
// source, each once, importing the standard library from source too. Every
// package is checked against the same objects its importers see, so a use
// anywhere in the module resolves to the one declaration it names.
type moduleChecker struct {
	root  string // module root directory
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // by import path
	info  *types.Info            // shared by every module package
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = p, files
	return p, nil
}

// TestEveryInternalFuncIsReached fails when a top-level function or method
// declared under internal/ is never used from a non-test file of the
// module (bench/ included) outside its own declaration. Exported API that
// only tests call belongs in the tests.
//
// The check is type-exact: a use counts only when it resolves to the
// declaration itself, so a dead method that shares its name with a live
// one is caught. A method that implements some interface method of the
// same name (of this module, of a package it imports, or error) counts as
// reached: dynamic dispatch can call it without naming it.
func TestEveryInternalFuncIsReached(t *testing.T) {
	m := &moduleChecker{
		root:  "../..",
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(m.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != m.root) {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) == 0 {
			return nil
		}
		rel, err := filepath.Rel(m.root, path)
		if err != nil {
			return err
		}
		if _, err := m.Import(modulePath + "/" + filepath.ToSlash(rel)); err != nil {
			if _, ok := err.(*build.NoGoError); !ok {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations under internal/, keyed package.Name or
	// package.Type.Name, with the span a self-use does not leave.
	type decl struct {
		key      string
		fn       *types.Func
		from, to token.Pos
	}
	var decls []decl
	for path, files := range m.files {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, f := range files {
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if r := recvName(fd); r != "" {
					key = f.Name.Name + "." + r + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, m.info.Defs[fd.Name].(*types.Func), fd.Pos(), fd.End()})
			}
		}
	}
	uses := map[*types.Func][]token.Pos{}
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
		}
	}
	ifaces := interfacesByMethod(m.pkgs)

	var dead []string
	for _, d := range decls {
		reached := false
		for _, p := range uses[d.fn] {
			if p < d.from || p >= d.to {
				reached = true
				break
			}
		}
		if !reached {
			reached = implementsSome(d.fn, ifaces[d.fn.Name()])
		}
		_, allowed := reachAllowed[d.key]
		at := m.fset.Position(d.from).String() + ": " + d.key
		switch {
		case !reached && !allowed:
			dead = append(dead, at+" is used by no non-test file")
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

// interfacesByMethod indexes, by method name, every named interface type
// declared at package level in pkgs or in any package they import
// (transitively), plus the predeclared error.
func interfacesByMethod(pkgs map[string]*types.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				it, ok := tn.Type().Underlying().(*types.Interface)
				if ok && !tn.IsAlias() && !isGeneric(tn.Type()) {
					add(it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return byName
}

// implementsSome reports whether fn is a method whose receiver type (or a
// pointer to it) implements one of ifaces.
func implementsSome(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if isGeneric(t) {
		return false // Implements is unspecified for uninstantiated types
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// isGeneric reports whether t is a named type with type parameters.
func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
