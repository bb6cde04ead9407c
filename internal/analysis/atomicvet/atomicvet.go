// Package atomicvet statically checks the repo's atomic-vs-plain
// memory access discipline.
//
// The phase-concurrent tables mix sync/atomic (and internal/atomicx)
// access with plain loads and stores of the same memory: CAS-probing
// during concurrent phases (per-element and bulk alike), and plain
// snapshot scans, rehashes and maintenance between phases. The
// plain accesses are sound only by a quiescence argument — exactly the
// kind of folklore invariant that rots silently. atomicvet makes it
// machine-checked:
//
//   - Every struct field that is accessed atomically anywhere becomes
//     "atomic-shadowed". A plain load or store of a shadowed field is
//     the atomicmix diagnostic, unless the enclosing function carries
//     a //phasehash:serial <reason> annotation declaring the
//     exclusivity argument.
//
//   - The annotation is itself checked: //phasehash:serial on a
//     function with no shadowed access is staleserial (the marker has
//     rotted), and an annotation without a reason is badannotation.
//
//   - Atomically-accessed 64-bit scalar fields must be 8-byte aligned
//     on 32-bit targets (sync/atomic's documented requirement); a
//     misplaced field is the align64 diagnostic, computed with
//     GOARCH=386 sizes so a 64-bit development host still catches it.
//
// Shadow sets are exported as package facts, so a field accessed
// atomically in its defining package is flagged on plain access in
// importing packages too.
package atomicvet

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"phasehash/internal/analysis/framework"
)

// AtomicVet is the analyzer instance the multichecker runs.
var AtomicVet = &framework.Analyzer{
	Name: "atomicvet",
	Doc: `report plain accesses to atomically-accessed struct fields

A struct field passed by address to sync/atomic or internal/atomicx
anywhere in the repo is atomic-shadowed: every plain load or store of
the same field is a potential data race and is reported (atomicmix),
unless the enclosing function is annotated

	//phasehash:serial <reason>

declaring why it has exclusive access (quiescence between phases, a
resize under its write lock, pre-publication initialization).
Slicing such a field (t.cells[lo:hi]) is a plain access too: the
slice aliases the shadowed elements. clear(t.cells) is a plain store.
A serial annotation on a function with no shadowed access is reported
as stale; an annotation without a reason is rejected. 64-bit shadowed
scalar fields are additionally checked for the 8-byte alignment
sync/atomic requires on 32-bit targets (align64).`,
	Run: run,
}

// Result is returned by Run for the self-audit test, which requires
// the analysis to have actually engaged: a clean run that shadowed no
// fields and sanctioned no kernels would be vacuous.
type Result struct {
	// ShadowedFields are the "pkgpath.Type.field" keys shadowed by
	// this package's own atomic accesses.
	ShadowedFields []string
	// SerialFuncs are the functions whose //phasehash:serial
	// annotation was exercised by at least one shadowed access.
	SerialFuncs []string
}

// shadowFact is the serialized per-package shadow set: field key ->
// whether the shadow covers slice/array elements rather than the
// scalar itself.
type shadowFact map[string]bool

// shadowKey is the fact key under which a package publishes its
// shadow set (a package-level fact keyed by a reserved object name).
const shadowKey = "package.shadowed"

type shadowInfo struct {
	elem  bool      // atomic access was to an element of the field
	pos   token.Pos // an example atomic access site (this package only)
	local bool
}

type checker struct {
	pass *framework.Pass
	// shadowed maps "pkgpath.Type.field" to shadow info, merging this
	// package's atomic accesses with imported facts.
	shadowed map[string]*shadowInfo
	// atomicArgs marks &x.f argument nodes of atomic calls, so the
	// plain-access walk does not flag the atomic sites themselves.
	atomicArgs map[ast.Node]bool
	// fields maps local shadow keys to their objects, for the
	// alignment check (defining package only).
	fields map[string]*types.Var
	serial []string
}

func run(pass *framework.Pass) (interface{}, error) {
	c := &checker{
		pass:       pass,
		shadowed:   map[string]*shadowInfo{},
		atomicArgs: map[ast.Node]bool{},
		fields:     map[string]*types.Var{},
	}
	c.importShadows()
	for _, f := range pass.Files {
		ast.Inspect(f, c.collectAtomic)
	}
	c.exportShadows()
	c.checkAlignment()
	for _, f := range pass.Files {
		// Test files are exempt: tests execute serially unless they
		// spawn goroutines (phasevet's territory), and white-box
		// inspection of atomically-shadowed cells is the whole point
		// of the core table tests.
		if framework.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	res := &Result{SerialFuncs: c.serial}
	for key, info := range c.shadowed {
		if info.local {
			res.ShadowedFields = append(res.ShadowedFields, key)
		}
	}
	sort.Strings(res.ShadowedFields)
	sort.Strings(res.SerialFuncs)
	return res, nil
}

// isAtomicPkg reports whether a package provides atomic access
// primitives whose pointer arguments shadow their targets.
func isAtomicPkg(path string) bool {
	path = framework.NormalizePkgPath(path)
	return path == "sync/atomic" || strings.HasSuffix(path, "internal/atomicx")
}

// collectAtomic records every struct field whose address is passed to
// a sync/atomic or atomicx function.
func (c *checker) collectAtomic(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !isAtomicPkg(fn.Pkg().Path()) {
		return true
	}
	for _, arg := range call.Args {
		u, ok := arg.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		key, fld, elem, ok := c.fieldAt(u.X)
		if !ok {
			continue
		}
		c.atomicArgs[u] = true
		info := c.shadowed[key]
		if info == nil {
			info = &shadowInfo{pos: u.Pos()}
			c.shadowed[key] = info
		}
		info.elem = info.elem || elem
		if !info.local {
			info.local = true
			info.pos = u.Pos()
		}
		if !elem {
			c.fields[key] = fld
		}
	}
	return true
}

// fieldAt resolves an expression like t.count or t.cells[i] to the
// struct field it denotes: the canonical "pkgpath.Type.field" key, the
// field object, and whether an element (rather than the field value
// itself) is addressed.
func (c *checker) fieldAt(e ast.Expr) (key string, fld *types.Var, elem bool, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			elem = true
			e = x.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", nil, false, false
	}
	s := c.pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", nil, false, false
	}
	fld, _ = s.Obj().(*types.Var)
	if fld == nil || fld.Pkg() == nil {
		return "", nil, false, false
	}
	fld = fld.Origin() // canonical field object for generic instantiations
	rt := s.Recv()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", nil, false, false
	}
	key = framework.NormalizePkgPath(fld.Pkg().Path()) + "." + named.Obj().Name() + "." + fld.Name()
	return key, fld, elem, true
}

// importShadows merges the shadow sets of every package in the
// transitive import closure.
func (c *checker) importShadows() {
	if c.pass.Facts == nil {
		return
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if p == c.pass.Pkg {
			return
		}
		data, ok := c.pass.Facts.ImportFact("atomicvet", framework.NormalizePkgPath(p.Path()), shadowKey)
		if !ok {
			return
		}
		var fact shadowFact
		if json.Unmarshal(data, &fact) != nil {
			return
		}
		for key, elem := range fact {
			info := c.shadowed[key]
			if info == nil {
				c.shadowed[key] = &shadowInfo{elem: elem}
			} else {
				info.elem = info.elem || elem
			}
		}
	}
	visit(c.pass.Pkg)
}

// exportShadows publishes this package's own shadow set.
func (c *checker) exportShadows() {
	if c.pass.Facts == nil {
		return
	}
	fact := shadowFact{}
	for key, info := range c.shadowed {
		if info.local {
			fact[key] = info.elem
		}
	}
	if len(fact) == 0 {
		return
	}
	data, err := json.Marshal(fact)
	if err != nil {
		return
	}
	c.pass.Facts.ExportFact("atomicvet", framework.NormalizePkgPath(c.pass.Pkg.Path()), shadowKey, data)
}

// checkAlignment verifies that every locally-shadowed scalar 64-bit
// field sits at an 8-byte offset under 32-bit (GOARCH=386) layout
// rules, as sync/atomic requires. Slice and array elements are exempt:
// the allocator aligns their backing stores.
func (c *checker) checkAlignment() {
	sizes := types.SizesFor("gc", "386")
	if sizes == nil {
		return
	}
	for key, info := range c.shadowed {
		if !info.local || info.elem {
			continue
		}
		fld := c.fields[key]
		if fld == nil || !is64BitScalar(fld.Type()) {
			continue
		}
		st, idx := owningStruct(c.pass.Pkg, fld)
		if st == nil {
			continue
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		offsets := sizes.Offsetsof(fields)
		if offsets[idx]%8 != 0 {
			c.pass.Reportf(fld.Pos(), "align64",
				"64-bit field %s is atomically accessed but sits at offset %d under 32-bit alignment rules; move it to the front of the struct or pad so its offset is a multiple of 8",
				key, offsets[idx])
		}
	}
}

func is64BitScalar(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Uint64, types.Int64:
		return true
	}
	return false
}

// owningStruct finds the struct type in pkg's scope that declares fld,
// returning the struct and the field index.
func owningStruct(pkg *types.Package, fld *types.Var) (*types.Struct, int) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if named.TypeParams().Len() > 0 {
			// Generic struct: field offsets depend on the type
			// arguments; sizes cannot be computed on the origin.
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fld {
				return st, i
			}
		}
	}
	return nil, -1
}

// checkFunc walks one function body for plain accesses to shadowed
// fields, honoring a //phasehash:serial annotation on the declaration.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	ann, annotated := framework.FuncAnnotation(c.pass.Fset, fd, "serial")
	if annotated && ann.Arg == "" {
		c.pass.Reportf(ann.Pos, "badannotation",
			"//phasehash:serial requires a reason explaining the exclusivity argument (e.g. \"quiescent between phases\")")
	}
	sanctionedAccess := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c.atomicArgs[n] {
			return false // the atomic access site itself
		}
		switch x := n.(type) {
		case *ast.IndexExpr:
			if key, info := c.shadowedElem(x.X); info != nil {
				if annotated {
					sanctionedAccess = true
				} else {
					c.reportMix(x.Pos(), key, info, "indexes")
				}
			}
		case *ast.RangeStmt:
			if key, info := c.shadowedElem(x.X); info != nil {
				if annotated {
					sanctionedAccess = true
				} else {
					c.reportMix(x.X.Pos(), key, info, "ranges over")
				}
			}
		case *ast.SliceExpr:
			// A slice of the field aliases its elements, so slicing is
			// the access, whatever the slice is then ranged over,
			// indexed, cleared or bound to.
			if key, info := c.shadowedElem(x.X); info != nil {
				if annotated {
					sanctionedAccess = true
				} else {
					c.reportMix(x.Pos(), key, info, "slices")
				}
			}
		case *ast.CallExpr:
			var verb string
			switch name, _ := builtinName(c.pass.TypesInfo, x); name {
			case "copy", "append":
				verb = "bulk-copies"
			case "clear":
				verb = "clears"
			default:
				return true
			}
			for _, arg := range x.Args {
				if key, info := c.shadowedElem(arg); info != nil {
					if annotated {
						sanctionedAccess = true
					} else {
						c.reportMix(arg.Pos(), key, info, verb)
					}
				}
			}
		case *ast.SelectorExpr:
			key, _, _, ok := c.fieldAt(x)
			if !ok {
				return true
			}
			info := c.shadowed[key]
			if info == nil || info.elem {
				return true // elem shadows handled structurally above
			}
			if annotated {
				sanctionedAccess = true
			} else {
				c.reportMix(x.Pos(), key, info, "plainly accesses")
			}
			return false
		}
		return true
	})
	if annotated {
		fnName := fd.Name.Name
		if fd.Recv != nil {
			if tn := recvTypeName(fd.Recv); tn != "" {
				fnName = tn + "." + fnName
			}
		}
		if sanctionedAccess {
			c.serial = append(c.serial, fnName)
		} else {
			c.pass.Reportf(ann.Pos, "staleserial",
				"//phasehash:serial on %s, but the body has no access to an atomic-shadowed field; the annotation has rotted and should be removed", fnName)
		}
	}
}

// shadowedElem reports whether e denotes a field whose *elements* are
// atomic-shadowed (e.g. the cells slice of a table).
func (c *checker) shadowedElem(e ast.Expr) (string, *shadowInfo) {
	key, _, elem, ok := c.fieldAt(e)
	if !ok || elem {
		return "", nil
	}
	info := c.shadowed[key]
	if info == nil || !info.elem {
		return "", nil
	}
	return key, info
}

func (c *checker) reportMix(pos token.Pos, key string, info *shadowInfo, verb string) {
	where := "in another package"
	if info.local && info.pos.IsValid() {
		where = "e.g. at line " + itoa(c.pass.Fset.Position(info.pos).Line)
	}
	c.pass.Reportf(pos, "atomicmix",
		"plain access: %s %s, which is accessed atomically elsewhere (%s); use sync/atomic, or annotate the enclosing function //phasehash:serial <reason> if access is provably exclusive",
		verb, key, where)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return "", false
	}
	return id.Name, true
}
