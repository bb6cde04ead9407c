package phasevet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"

	"phasehash/internal/analysis/framework"
)

// PhaseVet is the phase-discipline analyzer with interprocedural
// inference enabled (the default configuration the multichecker and
// go vet run).
var PhaseVet = NewAnalyzer(true)

const doc = `report phase-discipline violations on phasehash tables

The phase-concurrent contract requires that insert, delete and read
operations on the same table never overlap in time unless they belong
to the same phase. phasevet tracks, within each function body, which
phases may still be in flight on each table — operations issued in go
statements stay in flight until a barrier (sync.WaitGroup.Wait, a
channel receive, a parallel.For/Do call returning, a select statement,
or an explicit //phasehash:barrier comment) — and reports:

  mixedphases:  an operation that may overlap in-flight operations of
                a different phase on the same table
  gomix:        a raw (non-Checked) table operation inside a go
                statement or parallel closure that conflicts with the
                enclosing scope's in-flight or sibling operations
  readcapture:  an Elements/Count/Entries result captured while an
                insert or delete phase is still in flight

The analysis is interprocedural: a function that (transitively)
performs insert-phase table operations is itself an insert-phase
operation at its call sites, with summaries propagated across
packages as object facts. Functions guarded at runtime (PhaseGuard)
are exempt, like the Checked* wrappers.

A //phasehash:ignore comment on the operation's line suppresses the
diagnostic.`

// NewAnalyzer returns the phase-discipline analyzer. When
// interprocedural is false the analyzer behaves like phasevet 1.x:
// only fact-table methods are visible, and wrapper helpers are blind
// spots. That mode exists so tests can prove what inference adds.
func NewAnalyzer(interprocedural bool) *Analyzer {
	return &Analyzer{
		Name: "phasevet",
		Doc:  doc,
		Run: func(pass *Pass) (interface{}, error) {
			return run(pass, interprocedural)
		},
	}
}

func run(pass *Pass, interprocedural bool) (interface{}, error) {
	var inf *inference
	if interprocedural {
		inf = newInference(pass)
		inf.solve()
		inf.export()
	}
	for _, f := range pass.Files {
		ann := collectAnnotations(pass.Fset, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				newChecker(pass, ann, inf).walkBody(fd.Body)
			}
		}
	}
	return nil, nil
}

// CountTableOps reports how many phase-classified table operation
// call sites appear in the package, counting both fact-table methods
// and call sites of functions with interprocedurally-inferred phase
// effects. The repo self-audit test uses it to prove the analysis
// engages on real code — a clean analyzer run over a package with
// zero classified sites would be vacuous.
func CountTableOps(pass *Pass) int {
	inf := newInference(pass)
	inf.solve()
	n := 0
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := resolveCallee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if _, _, ok := classify(fn); ok {
				n++
			} else if eff := inf.effectOf(fn.Origin()); eff != nil && len(eff.Ops) > 0 {
				n++
			}
			return true
		})
	}
	return n
}

// annotations holds the //phasehash:barrier positions (sorted) and
// //phasehash:ignore line numbers of one file.
type annotations struct {
	barriers []token.Pos
	ignores  map[int]bool
}

func collectAnnotations(fset *token.FileSet, f *ast.File) *annotations {
	ann := &annotations{ignores: map[int]bool{}}
	for _, a := range framework.ScanAnnotations(fset, f) {
		switch a.Verb {
		case "barrier":
			ann.barriers = append(ann.barriers, a.End)
		case "ignore":
			ann.ignores[a.Line] = true
		}
	}
	sort.Slice(ann.barriers, func(i, j int) bool { return ann.barriers[i] < ann.barriers[j] })
	return ann
}

// recvRef identifies a table receiver expression: a stable in-function
// key, the declaring object of its root (nil for package-level vars,
// which get a cross-package "global:" key instead), and the
// selector/index path from that root.
type recvRef struct {
	key    string       // stable identity for in-flight tracking
	root   types.Object // root object; nil when global != ""
	global string       // "pkgpath.Var" for package-level roots
	path   string       // path from the root, e.g. ".set" or "[i]"
	text   string       // receiver as written, for diagnostics
}

func (r recvRef) child(seg, text string) recvRef {
	r.key += seg
	r.path += seg
	r.text += text
	return r
}

// opInfo is one classified (or inferred) table operation site.
type opInfo struct {
	ref      recvRef
	typeName string // "phasehash.Set" etc.
	method   string
	via      string // inferred helper chain, "" for direct operations
	fact     methodFact
	pos      token.Pos
	// async marks an inferred operation still in flight when its
	// helper returns; afterBarrier marks one sequenced after an
	// internal happens-before barrier of its helper.
	async        bool
	afterBarrier bool
}

// label renders the operation for diagnostics, naming the helper chain
// for inferred operations.
func (op opInfo) label() string {
	if op.via == "" {
		return op.method
	}
	return op.method + " via " + op.via
}

// flight records the first operation of a phase still in flight on a
// receiver.
type flight struct {
	pos    token.Pos
	method string
}

// opContext says where an operation site occurs.
type opContext int

const (
	ctxSync     opContext = iota // plain synchronous call
	ctxGo                        // inside a go statement
	ctxParallel                  // inside a parallel.For/Do closure
)

// notedOp is one materialized operation with the number of barriers
// the walk had crossed when it was seen (summary computation input).
type notedOp struct {
	op     opInfo
	clears int
}

type checker struct {
	pass *Pass
	ann  *annotations
	inf  *inference // nil disables interprocedural lookups
	// inflight maps receiver key -> phase -> first in-flight op.
	inflight map[string]map[Phase]flight
	// barrierMark is the highest position up to which barrier comments
	// have been consumed.
	barrierMark token.Pos
	// clears counts barrier events (inflight resets) seen by this walk.
	clears int
	// silent suppresses diagnostics (used while computing summaries).
	silent bool
	// collect, when non-nil, receives every materialized operation.
	collect *[]notedOp
}

func newChecker(pass *Pass, ann *annotations, inf *inference) *checker {
	return &checker{pass: pass, ann: ann, inf: inf, inflight: map[string]map[Phase]flight{}}
}

func (c *checker) walkBody(b *ast.BlockStmt) {
	for _, s := range b.List {
		c.stmt(s)
	}
}

func (c *checker) clearInflight() {
	c.clears++
	if len(c.inflight) > 0 {
		c.inflight = map[string]map[Phase]flight{}
	}
}

// crossBarrierComments clears in-flight state if a //phasehash:barrier
// comment lies between the last visited position and pos.
func (c *checker) crossBarrierComments(pos token.Pos) {
	if pos <= c.barrierMark {
		return
	}
	i := sort.Search(len(c.ann.barriers), func(i int) bool { return c.ann.barriers[i] > c.barrierMark })
	if i < len(c.ann.barriers) && c.ann.barriers[i] < pos {
		c.clearInflight()
	}
	c.barrierMark = pos
}

func (c *checker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	c.crossBarrierComments(s.Pos())
	switch st := s.(type) {
	case *ast.BlockStmt:
		c.walkBody(st)
	case *ast.ExprStmt:
		c.expr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			c.expr(e)
		}
		for _, e := range st.Lhs {
			c.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v)
					}
				}
			}
		}
	case *ast.GoStmt:
		c.goStmt(st)
	case *ast.DeferStmt:
		// Deferred work runs at return; analyze closures on their own
		// but do not fold their operations into this scope's order.
		for _, arg := range st.Call.Args {
			c.expr(arg)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			c.separateContext(fl)
		}
	case *ast.IfStmt:
		c.stmt(st.Init)
		c.expr(st.Cond)
		c.stmt(st.Body)
		c.stmt(st.Else)
	case *ast.ForStmt:
		c.stmt(st.Init)
		c.expr(st.Cond)
		c.stmt(st.Body)
		c.stmt(st.Post)
	case *ast.RangeStmt:
		if t := c.pass.TypesInfo.TypeOf(st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				// Each iteration receives from the channel: barrier.
				c.clearInflight()
			}
		}
		c.expr(st.X)
		c.stmt(st.Body)
	case *ast.SwitchStmt:
		c.stmt(st.Init)
		c.expr(st.Tag)
		c.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		c.stmt(st.Init)
		c.stmt(st.Assign)
		c.stmt(st.Body)
	case *ast.SelectStmt:
		// A select completes a communication: barrier.
		c.clearInflight()
		c.stmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			c.expr(e)
		}
		for _, s2 := range st.Body {
			c.stmt(s2)
		}
	case *ast.CommClause:
		c.stmt(st.Comm)
		for _, s2 := range st.Body {
			c.stmt(s2)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			c.expr(e)
		}
	case *ast.SendStmt:
		c.expr(st.Chan)
		c.expr(st.Value)
	case *ast.IncDecStmt:
		c.expr(st.X)
	case *ast.LabeledStmt:
		c.stmt(st.Stmt)
	}
}

// expr scans an expression in approximate evaluation order, handling
// table operations, barriers, parallel-runtime calls and closures.
func (c *checker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	sawReceive := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.FuncLit:
			// A closure not consumed by a recognized concurrency
			// primitive: analyze its body as its own sequential scope.
			c.separateContext(nd)
			return false
		case *ast.CallExpr:
			return !c.call(nd)
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW {
				sawReceive = true
			}
		}
		return true
	})
	if sawReceive {
		c.clearInflight()
	}
}

// call handles one call expression. It returns true if the call (and
// its arguments) were fully handled and the walker must not descend.
func (c *checker) call(call *ast.CallExpr) bool {
	kind, fn := c.calleeKind(call)
	switch kind {
	case calleeParallelLoop:
		c.parallelLoop(call)
		return true
	case calleeParallelDo:
		c.parallelDo(call)
		return true
	case calleeWait:
		c.clearInflight()
		return true
	case calleeTableOp:
		for _, arg := range call.Args {
			c.expr(arg)
		}
		if op, ok := c.opAt(call); ok {
			c.checkOp(op, ctxSync)
		}
		return true
	}
	if eff := c.effectFor(fn); eff != nil {
		for _, arg := range call.Args {
			c.expr(arg)
		}
		c.applyEffectCall(call, fn, eff)
		return true
	}
	return false
}

type calleeKind int

const (
	calleeOther calleeKind = iota
	calleeParallelLoop
	calleeParallelDo
	calleeWait
	calleeTableOp
)

const parallelPkg = "phasehash/internal/parallel"

// resolveCallee returns the *types.Func a call resolves to, or nil.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = info.ObjectOf(id)
		} else if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			obj = info.ObjectOf(sel.Sel)
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// calleeKind classifies the function being called.
func (c *checker) calleeKind(call *ast.CallExpr) (calleeKind, *types.Func) {
	fn := resolveCallee(c.pass.TypesInfo, call)
	if fn == nil {
		return calleeOther, nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, isPtr := rt.(*types.Pointer); isPtr {
			rt = p.Elem()
		}
		if named, isNamed := rt.(*types.Named); isNamed {
			o := named.Obj()
			if fn.Name() == "Wait" && o.Pkg() != nil && o.Pkg().Path() == "sync" && o.Name() == "WaitGroup" {
				return calleeWait, fn
			}
		}
		if _, _, ok := classify(fn); ok {
			return calleeTableOp, fn
		}
		return calleeOther, fn
	}
	if fn.Pkg() != nil && normalizePkgPath(fn.Pkg().Path()) == parallelPkg {
		switch fn.Name() {
		case "For", "ForGrain", "ForBlocked", "Reduce", "Sum":
			return calleeParallelLoop, fn
		case "Do":
			return calleeParallelDo, fn
		}
	}
	return calleeOther, fn
}

// effectFor returns the inferred phase effect of a callee worth
// modelling at its call sites, or nil. The fact table always wins:
// classified methods are handled as direct table operations.
func (c *checker) effectFor(fn *types.Func) *funcEffect {
	if c.inf == nil || fn == nil {
		return nil
	}
	fn = fn.Origin()
	if _, _, ok := classify(fn); ok {
		return nil
	}
	eff := c.inf.effectOf(fn)
	if eff == nil || (len(eff.Ops) == 0 && !eff.Barrier) {
		return nil
	}
	return eff
}

// applyEffectCall models a synchronous call to a function with an
// inferred phase effect: operations the callee completes before any
// internal barrier are checked against the caller's in-flight phases,
// an internal barrier drains the caller's in-flight set (exactly as a
// direct wg.Wait would), and operations the callee leaves in flight
// at return join the caller's in-flight set.
func (c *checker) applyEffectCall(call *ast.CallExpr, fn *types.Func, eff *funcEffect) {
	ops := c.expandEffect(call, fn, eff)
	for _, op := range ops {
		if !op.afterBarrier {
			c.checkOp(op, ctxSync)
		}
	}
	if eff.Barrier {
		c.clearInflight()
	}
	for _, op := range ops {
		if op.afterBarrier {
			c.noteOp(op)
		}
	}
	for _, op := range ops {
		if op.async {
			c.addInflight(op)
		}
	}
}

// expandEffect maps a callee's effect entries onto the call site's
// receiver and argument expressions, producing the operations the
// call performs on tables the caller can name.
func (c *checker) expandEffect(call *ast.CallExpr, fn *types.Func, eff *funcEffect) []opInfo {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var recvExpr ast.Expr
	recvOffset := 0
	if sig.Recv() != nil {
		recvOffset = 1
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			recvExpr = sel.X
		}
	}
	np := sig.Params().Len()
	exprsForSlot := func(slot int) []ast.Expr {
		if recvOffset == 1 && slot == 0 {
			if recvExpr == nil {
				return nil
			}
			return []ast.Expr{recvExpr}
		}
		pi := slot - recvOffset
		if pi < 0 || pi >= np {
			return nil
		}
		if sig.Variadic() && pi == np-1 {
			if len(call.Args) >= np {
				return call.Args[np-1:]
			}
			return nil
		}
		if pi < len(call.Args) {
			return []ast.Expr{call.Args[pi]}
		}
		return nil
	}
	via := fn.Name()
	var ops []opInfo
	add := func(ref recvRef, e effectOp) {
		v := via
		if e.Via != "" {
			v += " → …"
		}
		ops = append(ops, opInfo{
			ref:          ref,
			typeName:     e.TypeName,
			method:       e.Method,
			via:          v,
			fact:         methodFact{phase: Phase(e.PhaseID), capture: e.Capture},
			pos:          call.Pos(),
			async:        e.Async,
			afterBarrier: e.AfterBarrier,
		})
	}
	for _, e := range eff.Ops {
		if e.Global != "" {
			ref := recvRef{key: "global:" + e.Global + e.Path, global: e.Global, path: e.Path, text: e.Global + e.Path}
			add(ref, e)
			continue
		}
		for _, expr := range exprsForSlot(e.Slot) {
			ref, ok := c.recvRef(expr)
			if !ok {
				continue
			}
			add(ref.child(e.Path, e.Path), e)
		}
	}
	return ops
}

// opAt builds the opInfo for a classified table-operation call site,
// or ok=false when the receiver cannot be tracked.
func (c *checker) opAt(call *ast.CallExpr) (opInfo, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opInfo{}, false
	}
	fn, ok := c.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return opInfo{}, false
	}
	typeName, fact, ok := classify(fn)
	if !ok {
		return opInfo{}, false
	}
	ref, ok := c.recvRef(sel.X)
	if !ok {
		return opInfo{}, false
	}
	return opInfo{
		ref:      ref,
		typeName: typeName,
		method:   fn.Name(),
		fact:     fact,
		pos:      call.Pos(),
	}, true
}

// siteOps returns the operations a call expression performs: the
// classified operation itself, or the expansion of the callee's
// inferred effect.
func (c *checker) siteOps(call *ast.CallExpr) []opInfo {
	if op, ok := c.opAt(call); ok {
		return []opInfo{op}
	}
	kind, fn := c.calleeKind(call)
	if kind != calleeOther {
		return nil
	}
	if eff := c.effectFor(fn); eff != nil {
		return c.expandEffect(call, fn, eff)
	}
	return nil
}

// recvRef computes a stable identity for a receiver expression within
// this function: the declaring object for the root (or a cross-package
// "global:" key for package-level variables), plus the selector and
// index path as written.
func (c *checker) recvRef(e ast.Expr) (recvRef, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return recvRef{}, false
		}
		if g, ok := globalKey(obj); ok {
			return recvRef{key: "global:" + g, global: g, text: x.Name}, true
		}
		return recvRef{key: obj.Name() + "@" + strconv.Itoa(int(obj.Pos())), root: obj, text: x.Name}, true
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := c.pass.TypesInfo.ObjectOf(id).(*types.PkgName); isPkg {
				obj := c.pass.TypesInfo.ObjectOf(x.Sel)
				if obj == nil {
					return recvRef{}, false
				}
				if g, ok := globalKey(obj); ok {
					return recvRef{key: "global:" + g, global: g, text: types.ExprString(x)}, true
				}
				return recvRef{key: obj.Name() + "@" + strconv.Itoa(int(obj.Pos())), root: obj, text: types.ExprString(x)}, true
			}
		}
		base, ok := c.recvRef(x.X)
		if !ok {
			return recvRef{}, false
		}
		return base.child("."+x.Sel.Name, "."+x.Sel.Name), true
	case *ast.IndexExpr:
		base, ok := c.recvRef(x.X)
		if !ok {
			return recvRef{}, false
		}
		seg := "[" + types.ExprString(x.Index) + "]"
		return base.child(seg, seg), true
	case *ast.StarExpr:
		return c.recvRef(x.X)
	case *ast.ParenExpr:
		return c.recvRef(x.X)
	}
	return recvRef{}, false
}

// globalKey returns the cross-package identity of a package-level
// variable, or ok=false for any other object.
func globalKey(obj types.Object) (string, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	return normalizePkgPath(v.Pkg().Path()) + "." + v.Name(), true
}

// goStmt handles `go f(...)`: every table operation reachable in the
// spawned call — directly, in a closure body, or through a callee's
// inferred effect — stays in flight until the next barrier.
func (c *checker) goStmt(g *ast.GoStmt) {
	var ops []opInfo
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		ops = c.collectOps(fl.Body)
		// The body also gets its own sequential analysis, so internal
		// go statements and parallel closures are checked there.
		c.separateContext(fl)
	} else {
		ops = c.siteOps(g.Call)
	}
	for _, arg := range g.Call.Args {
		c.expr(arg)
	}
	// Check all spawned ops against the phases already in flight, then
	// record them; operations within one goroutine are sequential with
	// each other and must not be cross-flagged here.
	for _, op := range ops {
		c.checkOp(op, ctxGo)
	}
	for _, op := range ops {
		c.addInflight(op)
	}
}

// parallelLoop handles parallel.For/ForGrain/ForBlocked/Reduce/Sum:
// the closure body runs concurrently with itself, and the call's
// return is a happens-before barrier.
func (c *checker) parallelLoop(call *ast.CallExpr) {
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			c.expr(arg)
			continue
		}
		ops := c.collectOps(fl.Body)
		seen := map[string]opInfo{}
		for _, op := range ops {
			c.checkOp(op, ctxParallel)
			k := op.ref.key + "#" + op.fact.phase.String()
			if _, dup := seen[k]; dup {
				continue
			}
			for _, prev := range seenPhases(seen, op.ref.key) {
				if prev.fact.phase != op.fact.phase {
					c.reportClosureMix(op, prev)
					break
				}
			}
			seen[k] = op
		}
		c.separateContext(fl)
	}
	c.clearInflight()
}

func seenPhases(seen map[string]opInfo, recvKey string) []opInfo {
	var out []opInfo
	for _, p := range []Phase{PhaseInsert, PhaseDelete, PhaseRead} {
		if op, ok := seen[recvKey+"#"+p.String()]; ok {
			out = append(out, op)
		}
	}
	return out
}

// parallelDo handles parallel.Do(f, g, ...): the closures run
// concurrently with each other (but each runs once), and the call's
// return is a barrier.
func (c *checker) parallelDo(call *ast.CallExpr) {
	type sibling struct {
		ops []opInfo
	}
	var sibs []sibling
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			c.expr(arg)
			continue
		}
		ops := c.collectOps(fl.Body)
		for _, op := range ops {
			c.checkOp(op, ctxParallel)
		}
		c.separateContext(fl)
		sibs = append(sibs, sibling{ops: ops})
	}
	// Cross-check siblings: different phases on the same receiver in
	// two concurrently-running closures conflict.
	for i := 1; i < len(sibs); i++ {
		for _, op := range sibs[i].ops {
			for j := 0; j < i; j++ {
				for _, prev := range sibs[j].ops {
					if prev.ref.key == op.ref.key && prev.fact.phase != op.fact.phase {
						c.reportClosureMix(op, prev)
						j = i
						break
					}
				}
			}
		}
	}
	c.clearInflight()
}

// collectOps gathers every classified or inferred table operation
// syntactically reachable in node, including inside nested closures —
// used for code that will run concurrently, where internal sequencing
// cannot order operations against other instances of the same closure
// (a callee's internal barrier cannot protect it either, so effect
// expansions count whole).
func (c *checker) collectOps(node ast.Node) []opInfo {
	var ops []opInfo
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			ops = append(ops, c.siteOps(call)...)
		}
		return true
	})
	return ops
}

// separateContext analyzes a closure body as its own sequential scope
// with fresh in-flight state.
func (c *checker) separateContext(fl *ast.FuncLit) {
	sub := newChecker(c.pass, c.ann, c.inf)
	sub.barrierMark = c.barrierMark
	sub.silent = c.silent
	sub.walkBody(fl.Body)
}

func (c *checker) addInflight(op opInfo) {
	m := c.inflight[op.ref.key]
	if m == nil {
		m = map[Phase]flight{}
		c.inflight[op.ref.key] = m
	}
	if _, ok := m[op.fact.phase]; !ok {
		m[op.fact.phase] = flight{pos: op.pos, method: op.label()}
	}
}

// noteOp records a materialized operation for summary computation.
func (c *checker) noteOp(op opInfo) {
	if c.collect != nil {
		*c.collect = append(*c.collect, notedOp{op: op, clears: c.clears})
	}
}

// checkOp reports a conflict if op's phase differs from any phase in
// flight on the same receiver.
func (c *checker) checkOp(op opInfo, ctx opContext) {
	c.noteOp(op)
	if c.ann.ignores[c.line(op.pos)] {
		return
	}
	m := c.inflight[op.ref.key]
	for _, ph := range []Phase{PhaseInsert, PhaseDelete, PhaseRead} {
		fl, ok := m[ph]
		if !ok || ph == op.fact.phase {
			continue
		}
		c.reportConflict(op, ph, fl, ctx)
		return
	}
}

func (c *checker) line(p token.Pos) int { return c.pass.Fset.Position(p).Line }

func (c *checker) reportConflict(op opInfo, inFlight Phase, fl flight, ctx opContext) {
	if c.silent {
		return
	}
	writeInFlight := inFlight == PhaseInsert || inFlight == PhaseDelete
	switch {
	case op.fact.capture && writeInFlight:
		c.pass.Reportf(op.pos, "readcapture",
			"phase violation: %s.%s result on %s captured while %s-phase operations started at line %d may still be in flight; wait for the phase to drain (sync.WaitGroup.Wait, channel receive, or //phasehash:barrier) before reading",
			op.typeName, op.label(), op.ref.text, inFlight, c.line(fl.pos))
	case ctx != ctxSync:
		c.pass.Reportf(op.pos, "gomix",
			"phase violation: raw %s.%s (%s phase) on %s inside a goroutine or parallel closure may overlap %s-phase operations started at line %d; separate the phases with a barrier or wrap the table with %s",
			op.typeName, op.label(), op.fact.phase, op.ref.text, inFlight, c.line(fl.pos), wrapperFor(op.typeName))
	default:
		c.pass.Reportf(op.pos, "mixedphases",
			"phase violation: %s.%s (%s phase) on %s may overlap %s-phase operations started at line %d with no intervening barrier; add sync.WaitGroup.Wait, a channel receive, or //phasehash:barrier, or wrap the table with %s",
			op.typeName, op.label(), op.fact.phase, op.ref.text, inFlight, c.line(fl.pos), wrapperFor(op.typeName))
	}
}

func (c *checker) reportClosureMix(op opInfo, prev opInfo) {
	if c.silent || c.ann.ignores[c.line(op.pos)] {
		return
	}
	c.pass.Reportf(op.pos, "gomix",
		"phase violation: parallel closure mixes %s-phase %s.%s with %s-phase %s (line %d) on %s; concurrent iterations will overlap the two phases — split the loop or wrap the table with %s",
		op.fact.phase, op.typeName, op.label(), prev.fact.phase, prev.label(), c.line(prev.pos), op.ref.text, wrapperFor(op.typeName))
}
