package core

import "testing"

type testEnum uint8

var testEnumNames = Enum[testEnum]{
	Names:   []string{"zero", "one"},
	Aliases: map[string]testEnum{"uno": 1},
}

// TestEnum covers the table's contract beyond what the enumerated knobs'
// flag tests reach: the "Type(n)" fallback, a failed Set leaving the value
// alone with an error naming package, type and every name, and Fold.
func TestEnum(t *testing.T) {
	if got := testEnumNames.Name(1); got != "one" {
		t.Errorf("Name(1) = %q", got)
	}
	if got := testEnumNames.Name(2); got != "testEnum(2)" {
		t.Errorf("Name(2) = %q, want testEnum(2)", got)
	}
	if testEnumNames.Valid(2) || !testEnumNames.Valid(1) {
		t.Error("Valid must accept exactly the named values")
	}
	v := testEnum(0)
	if err := testEnumNames.Set(&v, "uno"); err != nil || v != 1 {
		t.Errorf("Set(uno) = %v, %v", v, err)
	}
	err := testEnumNames.Set(&v, "ONE")
	if want := `core: unknown testEnum "ONE" (want one of zero, one)`; err == nil || err.Error() != want || v != 1 {
		t.Errorf("Set(ONE) without Fold = %v, %v; want %q and the value left at 1", v, err, want)
	}
	folded := testEnumNames
	folded.Fold = true
	if err := folded.Set(&v, "ZeRo"); err != nil || v != 0 {
		t.Errorf("folded Set(ZeRo) = %v, %v", v, err)
	}
	if got := testEnumNames.List(); got != "zero | one" {
		t.Errorf("List() = %q", got)
	}
	if vs := testEnumNames.Values(); len(vs) != 2 || vs[0] != 0 || vs[1] != 1 {
		t.Errorf("Values() = %v", vs)
	}
}
