package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoScan checks types annotated `//rtmw:noscan`: such a type holds no
// pointer word — no pointer, slice, string, map, channel, function,
// interface or unsafe.Pointer, through every struct field and array element
// — so the collector never scans a value of it, nor a slab of them. The
// ledger's slabs and arenas rely on it: one pointer field added to a record
// type would make the collector mark every record again, and no test reads
// the collector's work.
//
// The annotation sits in the type's doc comment (on the type spec, or on a
// declaration with one spec); anywhere else it is reported, since a
// misplaced annotation would check nothing.
var NoScan = &Analyzer{
	Name: "noscan",
	Doc: "a type annotated //rtmw:noscan must hold no pointer words " +
		"(pointer, slice, string, map, chan, func, interface), through " +
		"every struct field and array element",
	Run: runNoScan,
}

func runNoScan(pass *Pass) error {
	for _, f := range pass.Files {
		placed := make(map[token.Pos]bool)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				for _, d := range parseDirectives(doc) {
					if d.Kind != "noscan" {
						continue
					}
					placed[d.Pos] = true
					obj := pass.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					if at, t, ok := pointerWord(obj.Type(), ""); ok {
						if at == "" {
							at, t = "itself", t.Underlying()
						}
						pass.Reportf(ts.Name.Pos(), "noscan type %s holds a pointer word at %s (%s)",
							ts.Name.Name, at, types.TypeString(t, types.RelativeTo(pass.Pkg)))
					}
				}
			}
		}
		for _, g := range f.Comments {
			for _, d := range parseDirectives(g) {
				if d.Kind == "noscan" && !placed[d.Pos] {
					pass.Reportf(d.Pos, "//rtmw:noscan must annotate a type declaration")
				}
			}
		}
	}
	return nil
}

// pointerWord finds the first pointer word in a value of type t, returning
// its path from the value (".field", "[i]") and its type.
func pointerWord(t types.Type, path string) (string, types.Type, bool) {
	if _, ok := t.(*types.TypeParam); ok {
		return path, t, true // any type argument may hold pointers
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.String || u.Kind() == types.UnsafePointer {
			return path, t, true
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return path, t, true
	case *types.Array:
		if u.Len() > 0 {
			return pointerWord(u.Elem(), path+"[i]")
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if at, ft, ok := pointerWord(fld.Type(), path+"."+fld.Name()); ok {
				return at, ft, true
			}
		}
	}
	return "", nil, false
}
