package lint

import (
	"fmt"
	"go/types"
	"path/filepath"
	"strings"
)

// deadExportName is the deadexport check's name in findings and in
// //cooper:deadexport suppressions.
const deadExportName = "deadexport"

// DeadExport reports every exported package-level name and every
// exported method declared in pkgs that no file of pkgs references: the
// surface no production path calls. It is a module pass, not an
// Analyzer — a name is dead only when no package references it, which
// the per-package vet protocol cannot see — so it stays out of
// Analyzers() and out of the DETERMINISM.md audit table.
//
// pkgs is the whole production reference set (test files never load).
// Packages loaded from source see their dependencies through export
// data, whose objects are not the source objects, so a use matches a
// declaration by its qualified key pkgpath.Recv.Name. A method also
// counts as used when its type satisfies an interface some loaded
// package mentions, or when it is String or Error (read through fmt's
// dynamic checks). The facade package in the root directory (the
// module's public library API) and main packages are consumers only:
// their names are never flagged.
//
// A finding is silenced by //cooper:deadexport <reason> on the
// declaration's line or the line above it; unused and reason-less
// suppressions are findings, as for the analyzers. Sites come back in
// (file, line) order, with paths relative to root.
func DeadExport(pkgs []*Package, root string) []Site {
	used := make(map[string]bool)
	var ifaces []*types.Interface
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			used[exportKey(obj)] = true
		}
		// Types records every expression, type expressions included.
		for _, tv := range pkg.TypesInfo.Types {
			walkInterfaces(tv.Type, addIface)
		}
	}

	// A named type that satisfies a seen interface uses the methods the
	// interface names, including ones promoted from embedded fields.
	for _, pkg := range pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for _, it := range ifaces {
				for _, s := range satisfies(mset, it) {
					used[exportKey(s.Obj())] = true
				}
			}
		}
	}

	known := map[string]bool{deadExportName: true}
	for _, a := range Analyzers() {
		known[a.Name] = false
	}
	var sites []Site
	for _, pkg := range pkgs {
		if pkg.Pkg.Name() == "main" || filepath.Dir(pkg.Fset.Position(pkg.Files[0].Pos()).Filename) == root {
			continue
		}
		var sups []*suppression
		for _, f := range pkg.Files {
			sups = append(sups, parseSuppressions(pkg.Fset, f, known, &sites)...)
		}
		for _, obj := range exportedDecls(pkg.Pkg) {
			if used[exportKey(obj)] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && (fn.Name() == "String" || fn.Name() == "Error") {
				continue
			}
			pos := pkg.Fset.Position(obj.Pos())
			site := Site{
				Analyzer: deadExportName,
				Pos:      pos,
				Message:  fmt.Sprintf("%s is exported but no production code references it", displayName(obj)),
			}
			if s := coveringSuppression(sups, deadExportName, pos); s != nil {
				s.used = true
				site.Suppressed = true
				site.Reason = s.reason
			}
			sites = append(sites, site)
		}
		sites = append(sites, unusedSuppressions(sups)...)
	}
	return relSorted(sites, root)
}

// exportedDecls lists a package's exported package-level objects and
// the exported methods of its named types, in scope order.
func exportedDecls(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, obj)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, m)
			}
		}
	}
	return out
}

// exportKey names a package-level object or method independently of
// which type-checker universe loaded it: "pkgpath.Name" or
// "pkgpath.Recv.Name". Fields, locals and builtins have no key.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			if named := recvNamed(recv.Type()); named != nil {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return "" // interface method
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// displayName renders a declaration as pkg.Name or pkg.Recv.Name.
func displayName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if named := recvNamed(fn.Signature().Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Name() + "." + name
}

// recvNamed strips a receiver's pointer to its named type (nil for an
// interface receiver).
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// satisfies returns the selections of mset that implement every method
// of it, or nil when one is missing. Signatures compare as strings
// qualified by package path, because the interface and the type may
// come from different type-checker universes.
func satisfies(mset *types.MethodSet, it *types.Interface) []*types.Selection {
	sel := make([]*types.Selection, 0, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		s := mset.Lookup(m.Pkg(), m.Name())
		if s == nil || sigString(s.Obj().Type()) != sigString(m.Type()) {
			return nil
		}
		sel = append(sel, s)
	}
	return sel
}

// sigString renders a method signature by its parameter and result
// types alone: names differ between an interface and its implementations.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	tuple := func(tup *types.Tuple) string {
		parts := make([]string, tup.Len())
		for i := range parts {
			parts[i] = types.TypeString(tup.At(i).Type(), qualifyByPath)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("%s%s variadic=%t", tuple(sig.Params()), tuple(sig.Results()), sig.Variadic())
}

func qualifyByPath(p *types.Package) string { return p.Path() }

// walkInterfaces calls add for every interface a type mentions through
// its signature, pointer, slice, array, map and channel structure.
func walkInterfaces(t types.Type, add func(types.Type)) {
	switch x := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{x.Params(), x.Results()} {
			for i := 0; i < tup.Len(); i++ {
				walkInterfaces(tup.At(i).Type(), add)
			}
		}
	case *types.Pointer:
		walkInterfaces(x.Elem(), add)
	case *types.Slice:
		walkInterfaces(x.Elem(), add)
	case *types.Array:
		walkInterfaces(x.Elem(), add)
	case *types.Map:
		walkInterfaces(x.Key(), add)
		walkInterfaces(x.Elem(), add)
	case *types.Chan:
		walkInterfaces(x.Elem(), add)
	default:
		add(t)
	}
}
