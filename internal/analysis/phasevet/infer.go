package phasevet

// Interprocedural phase inference. A function body is summarized into
// a funcEffect: which phase operations it performs on tables its
// callers can name (receiver, parameters, package-level variables),
// whether those operations are still in flight when it returns, and
// whether the body contains an internal happens-before barrier.
// Summaries are computed to a fixed point within the package (so
// helper-calls-helper chains resolve at any depth) and exchanged
// across packages as JSON object facts through framework.FactStore.
//
// Two function classes are deliberately excluded from inference:
// fact-table methods (the curated facts are the ground truth for the
// table API itself) and functions that bracket their operations with
// the runtime guard (core.PhaseGuard.Enter/EnterExclusive) — those are
// runtime-checked, exactly like the Checked* wrappers' deliberate
// absence from the fact table.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"phasehash/internal/analysis/framework"
)

// effectOp is one table operation a function performs on a table its
// caller can name. Slot 0 is the receiver when the function is a
// method, parameters follow left to right; Slot -1 with Global set
// names a package-level table ("pkgpath.Var").
type effectOp struct {
	Slot    int    `json:"slot"`
	Global  string `json:"global,omitempty"`
	Path    string `json:"path,omitempty"` // selector/index path below the slot
	PhaseID uint8  `json:"phase"`
	Capture bool   `json:"capture,omitempty"`
	// Async: the operation is still in flight when the function
	// returns (issued in a go statement with no subsequent barrier).
	Async bool `json:"async,omitempty"`
	// AfterBarrier: the operation is sequenced after an internal
	// barrier, so it cannot overlap work in flight before the call.
	AfterBarrier bool   `json:"afterBarrier,omitempty"`
	TypeName     string `json:"type"`
	Method       string `json:"method"`
	Via          string `json:"via,omitempty"` // nested helper chain
}

// funcEffect is the phase summary of one function.
type funcEffect struct {
	Ops []effectOp `json:"ops,omitempty"`
	// Barrier: the body establishes a happens-before barrier
	// (wg.Wait, channel receive, parallel call returning), which
	// drains the caller's in-flight phases exactly as a direct
	// barrier would under the receiver-blind barrier model.
	Barrier bool `json:"barrier,omitempty"`
}

func opKeyString(e effectOp) string {
	return fmt.Sprintf("%d|%s|%s|%d|%t|%t|%t|%s|%s|%s",
		e.Slot, e.Global, e.Path, e.PhaseID, e.Capture, e.Async, e.AfterBarrier, e.TypeName, e.Method, e.Via)
}

func (e *funcEffect) key() string {
	if e == nil {
		return ""
	}
	keys := make([]string, len(e.Ops))
	for i, op := range e.Ops {
		keys[i] = opKeyString(op)
	}
	sort.Strings(keys)
	return fmt.Sprintf("barrier=%t;%s", e.Barrier, strings.Join(keys, ";"))
}

// maxPathDepth bounds selector/index chains in effect paths so
// recursive structures cannot grow summaries without bound.
const maxPathDepth = 4

func pathDepth(path string) int {
	return strings.Count(path, ".") + strings.Count(path, "[")
}

// maxRounds bounds the intra-package fixpoint; summaries converge in
// a handful of rounds, and the cap guarantees termination even for
// pathological mutual recursion.
const maxRounds = 16

// inferDecl is one function declaration under inference.
type inferDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
	ann  *annotations
}

type inference struct {
	pass  *Pass
	decls []inferDecl
	// effects holds the current summary per package function; absent
	// means no visible effect.
	effects map[*types.Func]*funcEffect
	// imported caches fact lookups for other packages' functions
	// (including negative results).
	imported map[*types.Func]*funcEffect
}

func newInference(pass *Pass) *inference {
	inf := &inference{
		pass:     pass,
		effects:  map[*types.Func]*funcEffect{},
		imported: map[*types.Func]*funcEffect{},
	}
	for _, f := range pass.Files {
		ann := collectAnnotations(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if _, _, classified := classify(fn); classified {
				continue // the fact table is the ground truth here
			}
			if guarded(pass.TypesInfo, fd) {
				continue // runtime-checked, like the Checked* wrappers
			}
			inf.decls = append(inf.decls, inferDecl{fn: fn, decl: fd, ann: ann})
		}
	}
	return inf
}

// solve computes summaries to a fixed point.
func (inf *inference) solve() {
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, d := range inf.decls {
			eff := inf.compute(d)
			if eff.key() != inf.effects[d.fn].key() {
				inf.effects[d.fn] = eff
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// compute summarizes one function body by replaying it through the
// checker in silent+collect mode and translating the materialized
// operations into caller-visible effect entries.
func (inf *inference) compute(d inferDecl) *funcEffect {
	slots := slotObjects(d.decl, inf.pass.TypesInfo)
	var noted []notedOp
	c := newChecker(inf.pass, d.ann, inf)
	c.silent = true
	c.collect = &noted
	c.walkBody(d.decl.Body)

	eff := &funcEffect{Barrier: c.clears > 0}
	seen := map[string]bool{}
	for _, n := range noted {
		op := n.op
		e := effectOp{
			Path:     op.ref.path,
			PhaseID:  uint8(op.fact.phase),
			Capture:  op.fact.capture,
			TypeName: op.typeName,
			Method:   op.method,
			Via:      op.via,
		}
		switch {
		case op.ref.global != "":
			e.Slot = -1
			e.Global = op.ref.global
		default:
			s, ok := slots[op.ref.root]
			if !ok {
				continue // local table: invisible to callers
			}
			e.Slot = s
		}
		if pathDepth(e.Path) > maxPathDepth {
			continue
		}
		e.Async = c.stillInFlight(op)
		e.AfterBarrier = n.clears > 0
		k := opKeyString(e)
		if seen[k] {
			continue
		}
		seen[k] = true
		eff.Ops = append(eff.Ops, e)
	}
	sort.Slice(eff.Ops, func(i, j int) bool {
		return opKeyString(eff.Ops[i]) < opKeyString(eff.Ops[j])
	})
	return eff
}

// stillInFlight reports whether an operation's (receiver, phase) pair
// is still in the checker's in-flight set at the end of the body —
// i.e. some goroutine performing it may outlive the function.
func (c *checker) stillInFlight(op opInfo) bool {
	_, ok := c.inflight[op.ref.key][op.fact.phase]
	return ok
}

// effectOf returns the current summary for a function: the in-package
// fixpoint state for functions of this package, or an imported object
// fact for functions of other packages (nil without a fact store).
func (inf *inference) effectOf(fn *types.Func) *funcEffect {
	if fn == nil {
		return nil
	}
	if fn.Pkg() == inf.pass.Pkg {
		return inf.effects[fn]
	}
	if eff, ok := inf.imported[fn]; ok {
		return eff
	}
	var eff *funcEffect
	if inf.pass.Facts != nil && fn.Pkg() != nil {
		if key, ok := framework.ObjKey(fn); ok {
			if data, ok := inf.pass.Facts.ImportFact("phasevet", normalizePkgPath(fn.Pkg().Path()), key); ok {
				var decoded funcEffect
				if json.Unmarshal(data, &decoded) == nil {
					eff = &decoded
				}
			}
		}
	}
	inf.imported[fn] = eff
	return eff
}

// export publishes every non-empty summary as an object fact so
// dependent packages see through this package's helpers.
func (inf *inference) export() {
	if inf.pass.Facts == nil {
		return
	}
	pkgPath := normalizePkgPath(inf.pass.Pkg.Path())
	for _, d := range inf.decls {
		eff := inf.effects[d.fn]
		if eff == nil || (len(eff.Ops) == 0 && !eff.Barrier) {
			continue
		}
		key, ok := framework.ObjKey(d.fn)
		if !ok {
			continue
		}
		data, err := json.Marshal(eff)
		if err != nil {
			continue
		}
		inf.pass.Facts.ExportFact("phasevet", pkgPath, key, data)
	}
}

// slotObjects maps a declaration's receiver and parameter objects to
// effect slot numbers: receiver (if any) is slot 0, parameters follow
// left to right; unnamed and blank parameters still consume slots.
func slotObjects(decl *ast.FuncDecl, info *types.Info) map[types.Object]int {
	slots := map[types.Object]int{}
	n := 0
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					slots[obj] = 0
				}
			}
		}
		n = 1
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			if len(f.Names) == 0 {
				n++
				continue
			}
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					slots[obj] = n
				}
				n++
			}
		}
	}
	return slots
}

// guarded reports whether a body calls the runtime phase guard
// (core.PhaseGuard's Enter or EnterExclusive); such functions are runtime-checked and excluded from
// inference (flagging them statically would double-report what the
// guard already enforces dynamically, with its richer context).
func guarded(info *types.Info, decl *ast.FuncDecl) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
		if !ok {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return true
		}
		rt := sig.Recv().Type()
		if p, isPtr := rt.(*types.Pointer); isPtr {
			rt = p.Elem()
		}
		named, isNamed := rt.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return true
		}
		found = normalizePkgPath(named.Obj().Pkg().Path()) == "phasehash/internal/core" &&
			named.Obj().Name() == "PhaseGuard" &&
			(fn.Name() == "Enter" || fn.Name() == "EnterExclusive")
		return !found
	})
	return found
}
