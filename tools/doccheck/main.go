// Command doccheck is CI's documentation gate: it fails when an exported
// top-level symbol in any of the named package directories lacks a doc
// comment. It parses source directly (go/parser), so it needs no build and
// runs in milliseconds.
//
// A symbol passes when its own declaration carries a doc comment, or — for
// const/var/type specs inside a grouped declaration — when the group does.
// Test files are ignored.
//
// Usage: go run ./tools/doccheck [DIR ...]   (defaults to the godoc-
// guaranteed packages: ./internal/power ./internal/dram)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"./internal/power", "./internal/dram"}
	}
	missing := 0
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(1)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				missing += checkFile(fset, file)
			}
		}
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported symbol(s) without doc comments\n", missing)
		os.Exit(1)
	}
}

// checkFile reports every undocumented exported top-level symbol in one
// file and returns how many it found.
func checkFile(fset *token.FileSet, file *ast.File) int {
	missing := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), kind, name)
		missing++
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), kindOf(d.Tok), name.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// exportedRecv reports whether a function is plain or a method on an
// exported type — methods on unexported types are not part of the godoc
// surface, so they are exempt.
func exportedRecv(d *ast.FuncDecl) bool {
	name := recvName(d)
	return name == "" || ast.IsExported(name)
}

// recvName returns the type name of a method's receiver ("" for a plain
// function).
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic receiver type parameters, e.g. List[T].
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// kindOf names a value declaration's token for the report line.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "constant"
	}
	return "variable"
}
