package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// The field-coverage engine behind keycover and resetcover. Both prove
// an inventory claim over module struct types — every field reachable
// from an annotated function's subject is covered by that function or
// carries a reasoned exemption — and differ only in what covers a field
// (an encoder write, a reset). The engine owns the rest: the struct
// index, the exemption directive, selector resolution through embedded
// fields, and the closure of tracked types.

// coverField is one struct field as seen at its declaration. Embedded
// fields appear under their implicit name (the type's name).
type coverField struct {
	name     string
	pos      token.Pos
	exported bool
	jsonSkip bool // tagged `json:"-"`
	exempt   bool
	// structKey is the type key of the field's struct type (after
	// unwrapping pointers, slices, arrays and map values) when that
	// type is declared in this module, else "".
	structKey string
}

// coverType is one module-declared struct type, keyed by
// "<pkg path>.<type name>". String keys make matching robust across
// packages: the same type seen through different import instantiations
// compares equal.
type coverType struct {
	key     string
	display string // "pkg.Type" using the package name
	fields  []*coverField
}

// fieldRef names one field of a struct type by type key.
type fieldRef struct{ key, name string }

// coverIndex indexes every struct type declared in the module.
type coverIndex struct {
	structs    map[string]*coverType
	modulePkgs map[string]bool
}

// newCoverIndex indexes the module's struct types, reading the
// exemption directive (`//tlavet:keyexempt <reason>` or
// `//tlavet:resetexempt <reason>`) at each field declaration. Like
// //tlavet:allow, an exemption without a reason is reported and exempts
// nothing.
func newCoverIndex(mp *ModulePass, exemptDirective string) *coverIndex {
	ix := &coverIndex{structs: make(map[string]*coverType), modulePkgs: modulePackageSet(mp.Module)}
	for _, pkg := range mp.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					decl, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					st := pkg.Info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					ct := &coverType{
						key:     pkg.Path + "." + ts.Name.Name,
						display: pkg.Types.Name() + "." + ts.Name.Name,
					}
					// The declaration's fields line up with the type's:
					// one per name, one per embedded field.
					for _, field := range decl.Fields.List {
						exempt := fieldExemption(mp, field, exemptDirective)
						for range max(1, len(field.Names)) {
							i := len(ct.fields)
							v := st.Field(i)
							jsonName, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
							ct.fields = append(ct.fields, &coverField{
								name:      v.Name(),
								pos:       v.Pos(),
								exported:  v.Exported(),
								jsonSkip:  jsonName == "-",
								exempt:    exempt,
								structKey: structKeyOf(v.Type(), ix.modulePkgs),
							})
						}
					}
					ix.structs[ct.key] = ct
				}
			}
		}
	}
	return ix
}

// directiveArgs reports whether text is the comment directive and, if
// so, the whitespace-separated words that follow it.
func directiveArgs(text, directive string) ([]string, bool) {
	rest, ok := strings.CutPrefix(text, directive)
	if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
		return nil, false
	}
	return strings.Fields(rest), true
}

// fieldExemption reports whether the field's doc or line comment
// carries the exemption directive with a reason.
func fieldExemption(mp *ModulePass, field *ast.Field, directive string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			reason, ok := directiveArgs(c.Text, directive)
			if !ok {
				continue
			}
			if len(reason) == 0 {
				mp.Report(field.Pos(), strings.TrimPrefix(directive, "//tlavet:")+" directive has no reason",
					"write "+directive+" <reason> so exemptions stay auditable", nil)
				continue
			}
			return true
		}
	}
	return false
}

// modulePackageSet returns the module's package paths as a set, the
// form structKeyOf consumes.
func modulePackageSet(m *Module) map[string]bool {
	pkgs := make(map[string]bool, len(m.Pkgs))
	for _, p := range m.Pkgs {
		pkgs[p.Path] = true
	}
	return pkgs
}

// structKeyOf unwraps pointers, slices, arrays, and map values and
// returns the type key when the result is a named type declared in
// this module, else "".
func structKeyOf(t types.Type, modulePkgs map[string]bool) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Map:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !modulePkgs[named.Obj().Pkg().Path()] {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// exprKey is structKeyOf applied to the type of e.
func (ix *coverIndex) exprKey(pkg *Package, e ast.Expr) string {
	t, ok := pkg.TypeOfExpr(e)
	if !ok {
		return ""
	}
	return structKeyOf(t, ix.modulePkgs)
}

// selected resolves a selector to the fields it names, outermost
// first. An explicit x.f names f alone; a promoted x.f also names each
// embedded field on its implicit path (x.Inner, then Inner.f), so the
// access is attributed to the types that declare the fields. A method
// value names the embedded fields its method is promoted through.
func (ix *coverIndex) selected(pkg *Package, sel *ast.SelectorExpr) []fieldRef {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() == types.MethodExpr {
		return nil
	}
	index := s.Index()
	if s.Kind() == types.MethodVal {
		index = index[:len(index)-1] // the last entry picks the method
	}
	path := make([]fieldRef, 0, len(index))
	t := s.Recv()
	for _, i := range index {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		path = append(path, fieldRef{structKeyOf(t, ix.modulePkgs), f.Name()})
		t = f.Type()
	}
	return path
}

// reachedType is one struct type in a tracked closure, with its
// declaration chain from the root ("pkg.Root", "pkg.Root.field", …).
type reachedType struct {
	*coverType
	via []string
}

// reach walks breadth first from the indexed roots through every field
// follow accepts into the field's indexed struct type, and returns each
// type reached, once, in visiting order.
func (ix *coverIndex) reach(roots []string, follow func(*coverType, *coverField) bool) []reachedType {
	var out []reachedType
	seen := make(map[string]bool)
	for _, key := range roots {
		if ct := ix.structs[key]; ct != nil && !seen[key] {
			seen[key] = true
			out = append(out, reachedType{ct, []string{ct.display}})
		}
	}
	for i := 0; i < len(out); i++ {
		rt := out[i]
		for _, f := range rt.fields {
			ct := ix.structs[f.structKey]
			if ct == nil || seen[f.structKey] || !follow(rt.coverType, f) {
				continue
			}
			seen[f.structKey] = true
			via := append(append([]string(nil), rt.via...), rt.display+"."+f.name)
			out = append(out, reachedType{ct, via})
		}
	}
	return out
}

// markWholesale marks key and every type reach finds from it through
// the fields follow accepts as wholly covered.
func (ix *coverIndex) markWholesale(set map[string]bool, key string, follow func(*coverType, *coverField) bool) {
	if set[key] {
		return
	}
	for _, rt := range ix.reach([]string{key}, follow) {
		set[rt.key] = true
	}
}
