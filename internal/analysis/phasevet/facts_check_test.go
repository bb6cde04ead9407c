package phasevet_test

import (
	"go/types"
	"strings"
	"testing"

	"phasehash/internal/analysis/load"
	"phasehash/internal/analysis/phasevet"
)

// TestFactTableResolves cross-checks the static fact table against the
// real API: every (package, type, method) entry — phase facts and
// phase-neutral allowlist alike — must name a method that actually
// exists on the named type, so a rename in the tables or core layer
// cannot silently turn the analyzer into a no-op for that method. The
// method must be declared on that type (a selection index path of
// length 1), not promoted from an embedded field: classify keys on the
// declared receiver, so a call of a promoted method would silently
// leave the phase check.
func TestFactTableResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages from source")
	}
	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	refs := phasevet.FactRefs()
	if len(refs) < 20 {
		t.Fatalf("fact table has only %d entries; expected the full API surface", len(refs))
	}
	pkgs := map[string]*types.Package{}
	for _, ref := range refs {
		pkg := pkgs[ref.Pkg]
		if pkg == nil {
			pkg, err = loader.Import(ref.Pkg)
			if err != nil {
				t.Fatalf("importing %s: %v", ref.Pkg, err)
			}
			pkgs[ref.Pkg] = pkg
		}
		tn, ok := pkg.Scope().Lookup(ref.Type).(*types.TypeName)
		if !ok {
			t.Errorf("fact table names type %s.%s, which does not exist", ref.Pkg, ref.Type)
			continue
		}
		if _, ok := tn.Type().(*types.Named); !ok {
			t.Errorf("%s.%s is not a named type", ref.Pkg, ref.Type)
			continue
		}
		kind := "fact-table"
		if ref.Neutral {
			kind = "phase-neutral"
		}
		obj, index, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, ref.Method)
		if _, isFunc := obj.(*types.Func); !isFunc {
			t.Errorf("%s entry %s.%s.%s: the type has no such method", kind, ref.Pkg, ref.Type, ref.Method)
		} else if len(index) != 1 {
			t.Errorf("%s entry %s.%s.%s: the method is promoted from an embedded field, so calls of it are classified by that field's type; declare it on %s", kind, ref.Pkg, ref.Type, ref.Method, ref.Type)
		}
	}
}

// TestCheckedWrappersCoverFacts checks that following a diagnostic's
// advice compiles: for every type with a suggested runtime-checked
// twin, the constructor's result type has a method for every phase
// fact of the wrapped type, bulk calls included.
func TestCheckedWrappersCoverFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("loads packages from source")
	}
	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	facts := map[string][]string{} // "pkg.Type" -> classified methods
	for _, ref := range phasevet.FactRefs() {
		if !ref.Neutral {
			k := ref.Pkg + "." + ref.Type
			facts[k] = append(facts[k], ref.Method)
		}
	}
	if len(phasevet.CheckedWrappers) == 0 {
		t.Fatal("no checked wrappers registered")
	}
	for wrapped, ctor := range phasevet.CheckedWrappers {
		dot := strings.LastIndex(ctor, ".")
		pkg, err := loader.Import(ctor[:dot])
		if err != nil {
			t.Fatalf("importing %s: %v", ctor[:dot], err)
		}
		fn, ok := pkg.Scope().Lookup(ctor[dot+1:]).(*types.Func)
		if !ok {
			t.Errorf("%s (suggested for %s) is not a function", ctor, wrapped)
			continue
		}
		res := fn.Type().(*types.Signature).Results()
		if res.Len() != 1 {
			t.Errorf("%s returns %d values, want the wrapper alone", ctor, res.Len())
			continue
		}
		if len(facts[wrapped]) == 0 {
			t.Errorf("%s has a suggested wrapper but no phase facts", wrapped)
		}
		for _, m := range facts[wrapped] {
			if obj, _, _ := types.LookupFieldOrMethod(res.At(0).Type(), true, pkg, m); obj == nil {
				t.Errorf("%s suggests %s, whose result %s has no method %s", wrapped, ctor, res.At(0).Type(), m)
			}
		}
	}
}
