package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// ResetcoverAnalyzer is the static completeness proof behind state
// pooling: every field of a reset method's receiver must be restored by
// the method, or carry an explicit, justified exemption. The dynamic
// counterpart (TestResetEquivalence, TestResetStateEquivalence) proves
// the reset methods restore freshly-constructed state byte-for-byte for
// the configurations they run; resetcover proves no field can be
// FORGOTTEN — a new field added to a pooled type fails the build until
// the reset method handles it or its author justifies why reuse cannot
// observe it.
//
// A reset method declares itself in its doc comment:
//
//	//tlavet:resetcover
//
// The directive is also valid on an interface method declaration
// (replacement.StateResetter's ResetState), roping in every module
// implementation. Each annotated method's receiver struct — and every
// module-local struct reached through its non-exempt, non-delegated
// fields, through pointers, slices, arrays, maps, and embedded types —
// must have each field covered by one of:
//
//   - a wholesale overwrite (`*s = T{}`),
//   - a direct write (assignment, clear(), slice truncation — on the
//     method or a transitively-called helper with the same receiver
//     type; matching is type-based, so aliasing works),
//   - a delegated reset: calling another //tlavet:resetcover method on
//     the field (h.llc.Reset(), p.LRUStack.ResetState(), or a promoted
//     p.ResetState() for an embedded LRUStack),
//   - a `//tlavet:resetexempt <reason>` at the field declaration.
//
// Distinct findings separate a field that is never reset, an exemption
// gone stale (the field IS reset), and an unreachable reset helper (the
// field's type has an annotated reset method the parent never invokes).
var ResetcoverAnalyzer = &Analyzer{
	Name: "resetcover",
	Doc:  "every field of a //tlavet:resetcover'd receiver is restored or //tlavet:resetexempt'd",
	Help: "Pooled state is only reusable if its reset method restores every field. " +
		"Reset the new field in the annotated method (directly, via *s = T{}, or by " +
		"delegating to a //tlavet:resetcover method of the field's type), or annotate " +
		"the field //tlavet:resetexempt <reason> when reuse cannot observe it.",
	Default:   true,
	RunModule: runResetcover,
}

const (
	directiveResetcover  = "//tlavet:resetcover"
	directiveResetexempt = "//tlavet:resetexempt"
)

// recvStructKey returns the tracked-type key of fn's receiver struct,
// or "" when fn is not a method on a module-local named struct.
func recvStructKey(fn *types.Func, modulePkgs map[string]bool) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return structKeyOf(sig.Recv().Type(), modulePkgs)
}

func runResetcover(mp *ModulePass) {
	ix := newCoverIndex(mp, directiveResetexempt)
	g := buildCallGraph(mp.Module)

	// Dedupe (a method can be annotated directly and via an interface)
	// and index the annotated set for delegation matching. The roots
	// come sorted by name, which orders the checks below.
	annotated := make(map[*types.Func]bool)
	var methods []*types.Func
	resetOf := make(map[string][]*types.Func) // receiver type key → annotated resets
	for _, fn := range g.annotatedRoots(directiveResetcover) {
		if annotated[fn] {
			continue
		}
		annotated[fn] = true
		key := recvStructKey(fn, ix.modulePkgs)
		if ix.structs[key] == nil {
			pos := fn.Pos()
			if n := g.nodes[fn]; n != nil {
				pos = n.decl.Name.Pos()
			}
			mp.Report(pos, "resetcover on "+displayName(fn)+", which is not a method on a module struct",
				"annotate a method whose receiver is a struct declared in this module", nil)
			continue
		}
		methods = append(methods, fn)
		resetOf[key] = append(resetOf[key], fn)
	}
	for _, fn := range methods {
		node := g.nodes[fn]
		if node == nil {
			continue // declared without a body (external linkname etc.)
		}
		checkResetCoverage(mp, g, ix, annotated, resetOf, node)
	}
}

// resetWrites aggregates what one reset method (plus its same-receiver
// helpers) does to module struct fields.
type resetWrites struct {
	written   map[fieldRef]bool // any write to or through the field, or a delegated reset
	covered   map[fieldRef]bool // complete overwrite (of the field or its elements) or delegated reset
	wholesale map[string]bool   // type key → a whole value of the type overwritten
}

// everyField follows every field: overwriting a whole value resets
// everything beneath it.
func everyField(*coverType, *coverField) bool { return true }

// checkResetCoverage verifies one annotated reset method against its
// receiver struct and everything tracked through it.
func checkResetCoverage(mp *ModulePass, g *callGraph, ix *coverIndex,
	annotated map[*types.Func]bool, resetOf map[string][]*types.Func, root *cgNode) {

	resetName := displayName(root.fn)
	rootKey := recvStructKey(root.fn, ix.modulePkgs)

	// The body set: the annotated method plus every transitively-called
	// helper method on the same receiver type (h.clearIFetchMemos(),
	// c.setPolicy(), g.Reset()); their writes count as the reset's own.
	body := []*cgNode{root}
	seen := map[*cgNode]bool{root: true}
	for i := 0; i < len(body); i++ {
		for _, cs := range body[i].calls {
			cn := g.nodes[cs.callee]
			if cn == nil || seen[cn] {
				continue
			}
			if recvStructKey(cn.fn, ix.modulePkgs) != rootKey {
				continue
			}
			seen[cn] = true
			body = append(body, cn)
		}
	}

	w := &resetWrites{
		written:   make(map[fieldRef]bool),
		covered:   make(map[fieldRef]bool),
		wholesale: make(map[string]bool),
	}
	for _, n := range body {
		scanResetBody(n.pkg, n.decl, ix, annotated, w, g)
	}
	covered := func(ct *coverType, f *coverField) bool {
		return w.wholesale[ct.key] || w.covered[fieldRef{ct.key, f.name}]
	}

	// A field's struct type is tracked member-wise when nothing resets
	// the field as a whole and its type has no annotated reset of its own.
	reached := ix.reach([]string{rootKey}, func(ct *coverType, f *coverField) bool {
		return !f.exempt && !covered(ct, f) && len(resetOf[f.structKey]) == 0
	})
	for _, rt := range reached {
		for _, f := range rt.fields {
			display := rt.display + "." + f.name
			declChain := append(append([]string(nil), rt.via...), display)
			switch helpers := resetOf[f.structKey]; {
			case f.exempt:
				if w.written[fieldRef{rt.key, f.name}] {
					mp.Report(f.pos,
						"stale //tlavet:resetexempt: field "+display+" IS reset by "+resetName,
						"drop the exemption or stop resetting the field", declChain)
				}
			case covered(rt.coverType, f):
			case len(helpers) > 0:
				mp.Report(f.pos,
					"field "+display+" has reset method "+displayName(helpers[0])+
						" that "+resetName+" never invokes on it",
					"call "+displayName(helpers[0])+" on the field or annotate //tlavet:resetexempt <reason>",
					declChain)
			case ix.structs[f.structKey] != nil:
				// Member-wise reset: the field's struct type is reached, and
				// its own fields are judged individually.
			default:
				mp.Report(f.pos,
					"field "+display+" is never reset by "+resetName+" and has no //tlavet:resetexempt",
					"reset the field in "+resetName+" or annotate //tlavet:resetexempt <reason>",
					declChain)
			}
		}
	}
}

// stripAccess removes parentheses, indexing and dereferences, which do
// not change which field an expression reaches.
func stripAccess(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// scanResetBody records every write, wholesale overwrite, and delegated
// reset call in one body of the reset set. Matching is type-based: any
// lvalue whose base chain selects a field of a module struct counts for
// that (type, field) pair regardless of how the value was reached.
func scanResetBody(pkg *Package, decl *ast.FuncDecl, ix *coverIndex,
	annotated map[*types.Func]bool, w *resetWrites, g *callGraph) {

	recordLValue := func(lhs ast.Expr) {
		// Only the outermost selector is overwritten completely; every
		// field it is reached through is written partially.
		full := true
		for e := stripAccess(lhs); ; {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				break
			}
			path := ix.selected(pkg, sel)
			for i, ref := range path {
				w.written[ref] = true
				if full && i == len(path)-1 {
					w.covered[ref] = true
					// A complete overwrite of a struct-typed field resets
					// everything beneath it.
					ix.markWholesale(w.wholesale, ix.exprKey(pkg, sel), everyField)
				}
			}
			full = false
			e = stripAccess(sel.X)
		}
		// `*s = T{}`: a dereferencing overwrite of the whole value.
		if _, deref := lhs.(*ast.StarExpr); deref && full {
			ix.markWholesale(w.wholesale, ix.exprKey(pkg, lhs), everyField)
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				recordLValue(lhs)
			}
		case *ast.IncDecStmt:
			recordLValue(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "clear" && len(n.Args) == 1 {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					recordLValue(n.Args[0])
					return true
				}
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			delegates := false
			for _, callee := range g.callees(pkg, n) {
				if annotated[callee] {
					delegates = true
					break
				}
			}
			if !delegates {
				return true
			}
			// The call resets its receiver: find the field it was reached
			// through (h.llc.Reset() resets field llc, a promoted
			// p.ResetState() the embedded field it comes from; indexing
			// and dereferencing do not change which field is reset).
			path := ix.selected(pkg, sel)
			if recv, ok := stripAccess(sel.X).(*ast.SelectorExpr); ok && len(path) == 0 {
				path = ix.selected(pkg, recv)
			}
			if len(path) > 0 {
				field := path[len(path)-1]
				w.written[field] = true
				w.covered[field] = true
			}
		}
		return true
	})
}

// ResetcoverTargets exposes the receiver types of the module's
// //tlavet:resetcover methods, display-rendered ("pkg.Type"), sorted
// and deduplicated — for the static/dynamic reset-proof cross-check.
func ResetcoverTargets(m *Module) []string {
	g := buildCallGraph(m)
	modulePkgs := modulePackageSet(m)
	seen := make(map[string]bool)
	var names []string
	for _, fn := range g.annotatedRoots(directiveResetcover) {
		key := recvStructKey(fn, modulePkgs)
		if key == "" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		name := named.Obj().Pkg().Name() + "." + named.Obj().Name()
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
