// Package testonly flags functions and methods that only tests call.
//
// A function no deployment runs still costs what running code costs: it is
// read, documented, kept compiling through every refactor, and its tests
// pin behaviour nothing depends on. Such code used to be found by hand, one
// deletion pass at a time; this check keeps it from coming back.
//
// Rule: a function or method declared outside _test.go files is flagged
// when no non-test file of any package in the module refers to it
// (benchmark/, cmd/ and examples/ count as callers). A reference is a use
// of the function's identifier outside its own body, or, for a method, a
// type of the module satisfying an interface that has the method: the call
// happens through the interface (heap.Interface's Push, error's Error, a
// types.Importer). main, init, and the packages that exist to support tests
// (vfstest, vettest) are exempt. Suppress with //shield:notestonly <reason>
// in the doc comment, saying why the function stays without a caller.
package testonly

import (
	"go/ast"
	"go/types"
	"path"

	"shield/internal/vet/analysis"
	"shield/internal/vet/load"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:   "testonly",
	Doc:    "every non-test function and method has a non-test caller somewhere in the module",
	Run:    run,
	Module: references,
}

// testSupport names the packages whose every function is for tests.
var testSupport = map[string]bool{"vfstest": true, "vettest": true}

// refs is the set of functions and methods the module's non-test code
// refers to.
type refs map[types.Object]bool

func run(pass *analysis.Pass) error {
	used, ok := pass.Module.(refs)
	if !ok || testSupport[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files { // the loader reads no _test.go file
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
				continue
			}
			if used[pass.TypesInfo.Defs[fd.Name]] {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"%s has no non-test caller in the module: delete it with the tests whose subject it is, or annotate //shield:notestonly <reason>", displayName(fd))
		}
	}
	return nil
}

// displayName renders a function as F and a method as T.M.
func displayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return types.ExprString(recv) + "." + fd.Name.Name
}

// references builds the module-wide reference set: every identifier use
// outside the using function's own body, plus every method through which a
// module type satisfies an interface the loaded packages declare or spell.
func references(pkgs []*load.Package) any {
	used := refs{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := p.Info.Uses[id]; obj != nil && obj != self {
						used[origin(obj)] = true
					}
					return true
				})
			}
		}
	}
	markImplementations(pkgs, used)
	return used
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// markImplementations marks, for every interface the module's packages or
// their imports declare or spell, the methods through which a non-generic
// module type satisfies it. A type that is an error also has its Unwrap, Is
// and As marked: errors.Is and As call them through interfaces spelled
// inside function bodies, which the loader skips for the standard library.
func markImplementations(pkgs []*load.Package, used refs) {
	ifaces := []*types.Interface{errorType}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				ifaces = appendInterface(ifaces, tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			ifaces = appendInterface(ifaces, tv.Type)
		}
	}

	// Candidate types by method name (the method set of *T holds T's own
	// methods and those promoted from its embedded fields), so each
	// interface is checked only against the types that have its first
	// method.
	byMethod := map[string][]*types.Pointer{}
	for _, p := range pkgs {
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				ptr := types.NewPointer(n)
				ms := types.NewMethodSet(ptr)
				for i := 0; i < ms.Len(); i++ {
					byMethod[ms.At(i).Obj().Name()] = append(byMethod[ms.At(i).Obj().Name()], ptr)
				}
			}
		}
	}
	mark := func(ptr *types.Pointer, pkg *types.Package, name string) {
		if obj, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, name); obj != nil {
			used[origin(obj)] = true
		}
	}
	for _, it := range ifaces {
		for _, ptr := range byMethod[it.Method(0).Name()] {
			if m, _ := types.MissingMethod(ptr, it, true); m != nil {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				mark(ptr, it.Method(i).Pkg(), it.Method(i).Name())
			}
			if it == errorType {
				for _, name := range []string{"Unwrap", "Is", "As"} {
					mark(ptr, nil, name)
				}
			}
		}
	}
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// appendInterface appends t's underlying interface if it is a non-generic
// one with methods.
func appendInterface(ifaces []*types.Interface, t types.Type) []*types.Interface {
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return ifaces
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		return append(ifaces, it)
	}
	return ifaces
}
