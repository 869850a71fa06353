package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CounterDisciplineAnalyzer keeps the evaluation's counters honest:
// the paper's figures and the run telemetry summaries are computed
// from Traffic and TLAStats counters, which are only trustworthy if
// they are monotone — event counts can only grow during a run. Counter
// fields (uint64 fields, and arrays of them) may therefore only be
// incremented (++/+=); plain assignment or decrement outside a Reset
// method is a bug that silently corrupts results. Whole-struct resets
// (h.Traffic = Traffic{}) stay legal because they name the struct, not
// a counter.
var CounterDisciplineAnalyzer = &Analyzer{
	Name: "counterdiscipline",
	Doc:  "Traffic/TLAStats counter fields may only be incremented (++/+=) outside Reset",
	Help: "Conserved event counters are append-only evidence: decrementing or " +
		"overwriting one outside a Reset method silently unbalances the " +
		"traffic invariants the auditor checks. Use ++/+= for event counts " +
		"and confine wholesale zeroing to Reset.",
	Default: true,
	Run:     runCounterDiscipline,
}

// counterOwners names the types whose uint64 fields are event counters.
var counterOwners = map[string]bool{"Traffic": true, "TLAStats": true}

func runCounterDiscipline(pass *Pass) {
	walkWithStack(pass.Pkg, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.DEFINE {
				return
			}
			for _, lhs := range n.Lhs {
				checkCounterWrite(pass, lhs, n.Tok.String(), stack)
			}
		case *ast.IncDecStmt:
			if n.Tok == token.DEC {
				checkCounterWrite(pass, n.X, "--", stack)
			}
		}
	})
}

// checkCounterWrite reports lhs when it names a counter field of a
// Traffic/TLAStats value and the write is not inside a Reset method.
func checkCounterWrite(pass *Pass, lhs ast.Expr, op string, stack []ast.Node) {
	field, owner := counterField(pass, lhs)
	if field == "" {
		return
	}
	if _, fname := enclosingFunc(stack); fname == "Reset" {
		return
	}
	pass.Report(lhs.Pos(),
		"counter "+owner+"."+field+" modified with "+op+" outside Reset; counters must stay monotone",
		"use ++ or +=, or move the reset into a Reset method")
}

// counterField resolves lhs to (fieldName, ownerTypeName) when lhs
// writes a counter field — a uint64 (or array-of-uint64) field of a
// type named in counterOwners — either directly (x.Field) or through
// an index (x.Field[i]).
func counterField(pass *Pass, lhs ast.Expr) (field, owner string) {
	switch lhs := lhs.(type) {
	case *ast.IndexExpr:
		return counterField(pass, lhs.X)
	case *ast.ParenExpr:
		return counterField(pass, lhs.X)
	case *ast.SelectorExpr:
		ownerName := namedTypeName(pass.TypeOf(lhs.X))
		if !counterOwners[ownerName] {
			return "", ""
		}
		if !isCounterType(pass.TypeOf(lhs)) {
			return "", ""
		}
		return lhs.Sel.Name, ownerName
	}
	return "", ""
}

// namedTypeName returns the name of t after stripping pointers, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isCounterType reports whether t is uint64 or an array of uint64 —
// the shapes event counters take.
func isCounterType(t types.Type) bool {
	if t == nil {
		return false
	}
	if arr, ok := t.Underlying().(*types.Array); ok {
		t = arr.Elem()
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint64
}
