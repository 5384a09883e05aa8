package rejuv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rejuv/internal/lint"
)

// reachExempt names the functions TestReachable keeps although no root
// reaches them, each with the root that needs it. An entry that names
// no function, or a function a root reaches, fails the test: an
// exemption must exempt something. The internal/conformance test
// library is exempt as a whole and counts as a root.
var reachExempt = map[string]string{
	"(*rejuv/internal/ctmc.Chain).MeanTimeToAbsorption": "ROADMAP item 7 (run-length rows)",
	"(*rejuv/internal/xrand.Rand).Float64Open":          "pinned by TestStreamPinned",
	"rejuv/internal/stats.GammaP":                       "the χ² oracle family; FuzzGammaPQ checks GammaQ against it",
	"rejuv/internal/stats.ChiSquareCDF":                 "the χ² oracle family; TestChiSquareCDFKnownQuantiles pins it",
}

// TestReachable fails on every function of the module that no root
// reaches. Production roots are the mains (commands, examples and
// perfbench), init functions and package-level initializers, the root
// package's exported API including the methods of the types it aliases,
// and the methods of standard-library interfaces. Test
// roots are the functions that a _test.go file references from a
// package other than its own: a function only its own package's unit
// tests call is dead code with a test attached. A nested module
// (perfbench) is an outside client, so its own tests count as roots.
//
// Edges are the call graph rejuvlint builds (static calls plus
// interface fan-out) plus every function a body references as a value;
// a referenced interface method fans out to every implementation.
func TestReachable(t *testing.T) {
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	cg := lint.NewTree(pkgs).CallGraph()

	// An in-package test is checked together with a fresh copy of its
	// package, whose objects differ from the loaded ones; the shared
	// declaration position maps them back.
	declaredAt := make(map[token.Pos]*types.Func)
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				declaredAt[fn.Pos()] = fn
			}
		}
	}

	canonical := func(fn *types.Func) *types.Func {
		if loaded, ok := declaredAt[fn.Pos()]; ok {
			return loaded
		}
		return fn
	}

	var queue []*lint.FuncNode
	reached := make(map[*lint.FuncNode]bool)
	fanned := make(map[*types.Func]bool)
	var visit func(*types.Func)
	visit = func(fn *types.Func) {
		fn = canonical(fn)
		if iface := interfaceOf(fn); iface != nil {
			if !fanned[fn] {
				fanned[fn] = true
				for impl := range cg.Nodes {
					if implements(impl, fn.Name(), iface) {
						visit(impl)
					}
				}
			}
			return
		}
		if n := cg.Nodes[fn.Origin()]; n != nil && !reached[n] {
			reached[n] = true
			queue = append(queue, n)
		}
	}

	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					funcRefs(p.Info, decl, visit)
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				isMain := p.Pkg.Name() == "main" && fd.Name.Name == "main"
				if (fd.Recv == nil && (isMain || fd.Name.Name == "init")) || p.Rel == "internal/conformance" {
					visit(fn)
				}
			}
		}
		if p.Rel == "" {
			rootAPI(p.Pkg, visit)
		}
		_, err := os.Stat(filepath.Join(p.Dir, "go.mod"))
		nested := p.Rel != "" && err == nil
		testRefs(t, p, func(fn *types.Func) {
			if fn = canonical(fn); nested || fn.Pkg() == nil || fn.Pkg().Path() != p.Path {
				visit(fn)
			}
		})
	}
	stdInterfaceMethods(pkgs, visit)

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			visit(e.Callee.Fn)
		}
		funcRefs(n.Pkg.Info, n.Decl.Body, visit)
	}

	var dead []*lint.FuncNode
	for fn, n := range cg.Nodes {
		if _, ok := reachExempt[fn.FullName()]; !ok && !reached[n] {
			dead = append(dead, n)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Fn.FullName() < dead[j].Fn.FullName() })
	for _, n := range dead {
		t.Errorf("%s: %s is reached by no production root and by no other package's tests",
			n.Pkg.Fset.Position(n.Decl.Pos()), n.Fn.FullName())
	}
	for name := range reachExempt {
		switch n := nodeNamed(cg, name); {
		case n == nil:
			t.Errorf("reachExempt names %s, which is not declared", name)
		case reached[n]:
			t.Errorf("reachExempt names %s, which a root reaches; drop the entry", name)
		}
	}
}

// interfaceOf returns the interface that declares fn, or nil when fn is
// a concrete function or method.
func interfaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// implements reports whether fn is a method called name whose receiver
// type implements iface, so that a call of the interface method can
// dispatch to it.
func implements(fn *types.Func, name string, iface *types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Name() != name {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return types.Implements(types.NewPointer(t), iface)
}

// funcRefs calls f for every function or method n references.
func funcRefs(info *types.Info, n ast.Node, f func(*types.Func)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				f(fn)
			}
		}
		return true
	})
}

// rootAPI calls f for the root package's exported functions and for the
// exported methods of every type it declares or aliases.
func rootAPI(pkg *types.Package, f func(*types.Func)) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				f(obj)
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < ms.Len(); i++ {
				if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
					f(fn)
				}
			}
		}
	}
}

// stdInterfaceMethods calls f for the methods of error and of every
// interface declared by a non-module package the module imports,
// directly or transitively: the standard library calls them (fmt,
// sort, encoding/json and the like), so they reach each module type
// that implements the interface.
func stdInterfaceMethods(pkgs []*lint.Package, f func(*types.Func)) {
	methods := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			f(it.Method(i))
		}
	}
	methods(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	module := make(map[*types.Package]bool, len(pkgs))
	for _, p := range pkgs {
		module[p.Pkg] = true
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if !module[pkg] {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						methods(it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
	}
}

// testRefs type-checks the _test.go files in p's directory, in-package
// and external, against the loaded module and calls f for every
// function they reference. Type errors are tolerated: an external test
// that uses an export_test.go helper still resolves everything else.
func testRefs(t *testing.T, p *lint.Package, f func(*types.Func)) {
	entries, err := os.ReadDir(p.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var inPkg, ext []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(p.Fset, filepath.Join(p.Dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if file.Name.Name == p.Pkg.Name() {
			inPkg = append(inPkg, file)
		} else {
			ext = append(ext, file)
		}
	}
	check := func(path string, files, tests []*ast.File) {
		if len(tests) == 0 {
			return
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: p.Importer, Error: func(error) {}}
		_, _ = conf.Check(path, p.Fset, append(files, tests...), info) // errors are collected by conf.Error
		for _, file := range tests {
			funcRefs(info, file, f)
		}
	}
	check(p.Path, p.Files[:len(p.Files):len(p.Files)], inPkg)
	check(p.Path+"_test", nil, ext)
}

// nodeNamed returns the graph's function of the given name, or nil.
func nodeNamed(cg *lint.CallGraph, name string) *lint.FuncNode {
	for fn, n := range cg.Nodes {
		if fn.FullName() == name {
			return n
		}
	}
	return nil
}
