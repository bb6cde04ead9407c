package phasevet

import (
	"go/types"
	"sort"

	"phasehash/internal/analysis/framework"
)

// Phase is the analyzer's classification of a table method. It mirrors
// core.Phase but is independent of it so the analyzer does not import
// the packages it checks.
type Phase uint8

// Method phase classes.
const (
	PhaseNone   Phase = iota // unclassified: not subject to the discipline
	PhaseInsert              // insert phase
	PhaseDelete              // delete phase
	PhaseRead                // read phase (find / elements / count)
)

func (p Phase) String() string {
	switch p {
	case PhaseInsert:
		return "insert"
	case PhaseDelete:
		return "delete"
	case PhaseRead:
		return "read"
	default:
		return "none"
	}
}

// methodFact classifies one method of one table type.
type methodFact struct {
	phase Phase
	// capture marks methods whose *result* is a snapshot of table
	// state (Elements, Count, Entries): using one while a write phase
	// is in flight is the read-during-write diagnostic.
	capture bool
}

// factKey is "pkgpath.TypeName.Method". Test-variant package paths
// ("phasehash [phasehash.test]") are normalized before lookup.
type factKey struct {
	pkg, typ, method string
}

// phaseFacts classifies every phase-disciplined method of the public
// containers and the internal/core tables. The public containers are
// three types: every set layout is a phasehash.Set (the CompactSet
// alias resolves to it) and both map layouts are a phasehash.Map32, so
// one block each covers every constructor. Types deliberately absent:
// CheckedSet and the other Checked* wrappers (runtime-guarded) —
// operations on those are always safe to call from any phase.
var phaseFacts = map[factKey]methodFact{}

// checkedWrapper names the runtime-checked twin the diagnostic should
// suggest for each classified public type. Each twin has a method for
// every phase fact of the type it wraps, so following the suggestion
// compiles (TestCheckedWrappersCoverFacts).
var checkedWrapper = map[string]string{
	"phasehash.Set":       "phasehash.Checked",
	"phasehash.Map32":     "phasehash.NewCheckedMap32",
	"phasehash.StringMap": "phasehash.NewCheckedStringMap",
}

// phaseNeutral lists methods on classified types that are deliberately
// NOT phase-classified: telemetry accessors that read the phasestats
// sinks or per-shard atomic counters, never table cells, and are
// therefore safe to call during any phase (package-level accessors like
// phasehash.Stats and ResetStats have no receiver and are never
// classified to begin with). The allowlist is consulted by classify()
// and cross-checked against phaseFacts at init, so a future fact
// addition cannot silently subject them to the discipline.
var phaseNeutral = map[factKey]bool{
	{"phasehash", "Set", "ShardStats"}:                        true,
	{"phasehash", "Map32", "ShardStats"}:                      true,
	{"phasehash/internal/core", "ShardedTable", "ShardStats"}: true,
}

func addFacts(pkg, typ string, methods map[string]methodFact) {
	for m, f := range methods {
		k := factKey{pkg, typ, m}
		if phaseNeutral[k] {
			panic("phasevet: " + pkg + "." + typ + "." + m + " is declared phase-neutral and cannot carry a phase fact")
		}
		phaseFacts[k] = f
	}
}

// tableFacts returns the facts of one table type: the six insert- and
// delete-phase methods every table shares, the given read-phase
// methods, and the read-phase methods whose result is a snapshot of
// table state (captures). The *All bulk calls carry the phase of their
// per-element counterparts: a bulk call is the same phase's
// operations, just batched.
func tableFacts(reads []string, captures ...string) map[string]methodFact {
	m := map[string]methodFact{
		"Insert":       {phase: PhaseInsert},
		"TryInsert":    {phase: PhaseInsert},
		"InsertAll":    {phase: PhaseInsert},
		"TryInsertAll": {phase: PhaseInsert},
		"Delete":       {phase: PhaseDelete},
		"DeleteAll":    {phase: PhaseDelete},
	}
	for _, r := range reads {
		m[r] = methodFact{phase: PhaseRead}
	}
	for _, c := range captures {
		m[c] = methodFact{phase: PhaseRead, capture: true}
	}
	return m
}

func init() {
	const (
		ph   = "phasehash"
		core = "phasehash/internal/core"
	)
	var (
		setReads  = []string{"Contains", "ContainsAll"}
		mapReads  = []string{"Find", "FindAll"}
		wordReads = []string{"Find", "FindAll", "Contains", "ContainsAll"}
		scanReads = []string{"Find", "FindAll", "Contains", "ContainsAll", "ForEach"}
	)
	// Public containers.
	addFacts(ph, "Set", tableFacts(setReads, "Elements", "Count"))
	addFacts(ph, "Map32", tableFacts(mapReads, "Entries", "Count"))
	addFacts(ph, "StringMap", tableFacts(mapReads, "Entries", "Count"))
	// internal/core tables (generic; looked up by their generic name).
	addFacts(core, "WordTable", tableFacts(scanReads, "Elements", "ElementsInto", "Count", "CountAtomic"))
	addFacts(core, "PtrTable", tableFacts(mapReads, "Elements", "ElementsInto", "Count"))
	addFacts(core, "ShardedTable", tableFacts(scanReads, "Elements", "ElementsInto", "Count"))
	addFacts(core, "CompactTable", tableFacts(scanReads, "Elements", "ElementsInto", "Count", "CountAtomic"))
	addFacts(core, "GrowTable", tableFacts(wordReads, "Elements", "ElementsInto", "Count"))
}

// normalizePkgPath strips the test-variant suffix go vet uses for test
// compilation units ("phasehash [phasehash.test]" -> "phasehash").
func normalizePkgPath(p string) string { return framework.NormalizePkgPath(p) }

// FactRef is one entry of the method fact table, exported so tests can
// cross-check every entry against the real method sets of the named
// types — a renamed or removed method must fail the check rather than
// silently stop matching.
type FactRef struct {
	Pkg    string // package path, e.g. "phasehash/internal/core"
	Type   string // receiver type name
	Method string
	// Neutral marks phaseNeutral allowlist entries (methods declared
	// exempt from the discipline) rather than phase facts.
	Neutral bool
}

// FactRefs returns every fact-table and phase-neutral entry, sorted.
func FactRefs() []FactRef {
	var refs []FactRef
	for k := range phaseFacts {
		refs = append(refs, FactRef{Pkg: k.pkg, Type: k.typ, Method: k.method})
	}
	for k := range phaseNeutral {
		refs = append(refs, FactRef{Pkg: k.pkg, Type: k.typ, Method: k.method, Neutral: true})
	}
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Method < b.Method
	})
	return refs
}

// classify returns the phase fact for a called method object, or
// ok=false if the method is not phase-disciplined.
func classify(fn *types.Func) (typeName string, fact methodFact, ok bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", methodFact{}, false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", methodFact{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", methodFact{}, false
	}
	pkg := normalizePkgPath(obj.Pkg().Path())
	key := factKey{pkg, obj.Name(), fn.Name()}
	if phaseNeutral[key] {
		return "", methodFact{}, false
	}
	fact, ok = phaseFacts[key]
	return pkg + "." + obj.Name(), fact, ok
}

// wrapperFor suggests the checked twin for a classified type name. The
// internal/core tables have no twin; the guard the twins are built on
// is the suggestion there.
func wrapperFor(typeName string) string {
	if w, ok := checkedWrapper[typeName]; ok {
		return w
	}
	return "a core.PhaseGuard (Enter/Exit around each operation)"
}
