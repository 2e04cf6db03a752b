package core

import (
	"fmt"
	"strings"
)

// Enum is the one spelling table of an enumerated type whose values are
// 0, 1, 2, ...: the type's String, its flag parsing (Set), its range check
// (Valid), its value list and its help text all read the table, so a new
// value is one more name and no list elsewhere can drift from it.
type Enum[T ~int | ~uint8] struct {
	// Names holds each value's canonical name, indexed by value.
	Names []string
	// Aliases maps further accepted spellings to their values.
	Aliases map[string]T
	// Fold makes Set match names and aliases case-insensitively.
	Fold bool
}

// Name returns v's canonical name, or "Type(n)" for a value the table does
// not name.
func (e Enum[T]) Name(v T) string {
	if e.Valid(v) {
		return e.Names[int(v)]
	}
	_, typ, _ := strings.Cut(fmt.Sprintf("%T", v), ".")
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// Valid reports whether the table names v.
func (e Enum[T]) Valid(v T) bool { return v >= 0 && int(v) < len(e.Names) }

// Set parses s, a canonical name or an alias, into *p; on error *p is left
// alone. It is the body of the type's flag.Value Set method.
func (e Enum[T]) Set(p *T, s string) error {
	match := func(name string) bool { return name == s || e.Fold && strings.EqualFold(name, s) }
	for i, name := range e.Names {
		if match(name) {
			*p = T(i)
			return nil
		}
	}
	for name, v := range e.Aliases {
		if match(name) {
			*p = v
			return nil
		}
	}
	pkg, typ, _ := strings.Cut(fmt.Sprintf("%T", *p), ".")
	return fmt.Errorf("%s: unknown %s %q (want one of %s)", pkg, typ, s, strings.Join(e.Names, ", "))
}

// Values lists the table's values in order.
func (e Enum[T]) Values() []T {
	vs := make([]T, len(e.Names))
	for i := range vs {
		vs[i] = T(i)
	}
	return vs
}

// List renders the canonical names for a flag's help: "a | b | c".
func (e Enum[T]) List() string { return strings.Join(e.Names, " | ") }
