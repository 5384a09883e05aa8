package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the shared call graph the interprocedural analyzers
// (hotpath, lockguard) walk. The graph covers every function and method
// declared in the loaded packages and resolves three kinds of call
// sites:
//
//   - static calls (package functions, concrete methods): one edge to
//     the declared callee when it lives in the tree;
//   - interface method calls through interfaces *defined in the tree*:
//     conservatively fanned out to every in-tree type that implements
//     the interface (so Monitor.Observe reaches every Detector.Observe
//     implementation);
//   - calls through function values (fields, parameters, locals) and
//     through out-of-tree interfaces (io.Writer, sort.Interface): left
//     unresolved. These are the engine's documented false-negative
//     surface — see DESIGN §13.
//
// Function literals do not get nodes of their own: their bodies are
// attributed to the enclosing declared function, which matches how the
// hot-path contract reads (a closure constructed and invoked inside
// Step is part of Step's cost).
type CallGraph struct {
	// Nodes maps every declared function/method with a body to its node.
	Nodes map[*types.Func]*FuncNode
	// Unresolved counts call sites the builder could not resolve
	// (function values, out-of-tree interfaces); exposed for -v output
	// so the conservatism is measurable.
	Unresolved int
}

// FuncNode is one declared function or method in the tree.
type FuncNode struct {
	// Fn is the type-checker object; Fn.FullName() names diagnostics.
	Fn *types.Func
	// Decl is the declaration, always with a non-nil body.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Calls holds the resolved outgoing edges in source order.
	Calls []CallEdge
}

// CallEdge is one resolved call site.
type CallEdge struct {
	// Site is the call expression in the caller's body.
	Site *ast.CallExpr
	// Callee is the resolved target.
	Callee *FuncNode
	// ViaInterface reports that the edge came from interface fan-out
	// rather than a direct static call.
	ViaInterface bool
}

// buildCallGraph constructs the graph over every loaded package.
func buildCallGraph(t *Tree) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*FuncNode)}

	// Pass 1: one node per declared function with a body.
	for _, p := range t.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // type-check failure; degrade gracefully
				}
				g.Nodes[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: p}
			}
		}
	}

	// Implementation lookup is cached per interface and method: the
	// fan-out scans every named type in the tree once per distinct pair.
	// The interface is part of the key because an interface that embeds
	// another shares its method objects but has fewer implementations.
	impls := make(map[implKey][]*FuncNode)

	// Pass 2: resolve the call sites of every node body.
	for _, node := range g.Nodes {
		n := node
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.addEdges(t, n, call, impls)
			return true
		})
		sort.SliceStable(n.Calls, func(i, j int) bool {
			return n.Calls[i].Site.Pos() < n.Calls[j].Site.Pos()
		})
	}
	return g
}

// addEdges resolves one call site into zero or more edges on caller.
func (g *CallGraph) addEdges(t *Tree, caller *FuncNode, call *ast.CallExpr, impls map[implKey][]*FuncNode) {
	info := caller.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			g.addStatic(caller, call, obj)
		case *types.Builtin:
			// append/make/new are modeled by the hotpath site scan.
		default:
			g.Unresolved++ // local function value
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				g.Unresolved++ // func-typed field value
				return
			}
			if types.IsInterface(sel.Recv()) {
				g.addInterfaceCall(t, caller, call, sel.Recv(), fn, impls)
				return
			}
			g.addStatic(caller, call, fn)
			return
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			g.addStatic(caller, call, fn)
			return
		}
		g.Unresolved++
	default:
		// Call of a function literal, index expression, etc.
		g.Unresolved++
	}
}

// addStatic records an edge to a statically resolved callee when its
// declaration is in the tree.
func (g *CallGraph) addStatic(caller *FuncNode, call *ast.CallExpr, fn *types.Func) {
	if callee, ok := g.Nodes[fn]; ok {
		caller.Calls = append(caller.Calls, CallEdge{Site: call, Callee: callee})
	}
}

// addInterfaceCall fans an interface method call out to every in-tree
// implementation. Out-of-tree interfaces are left unresolved: their
// implementations are chosen at setup time (an io.Writer sink), not on
// the analyzed path.
func (g *CallGraph) addInterfaceCall(t *Tree, caller *FuncNode, call *ast.CallExpr, recv types.Type, fn *types.Func, impls map[implKey][]*FuncNode) {
	if pkg := fn.Pkg(); pkg == nil || !t.inTree(pkg.Path()) {
		g.Unresolved++
		return
	}
	key := implKey{recv, fn}
	targets, ok := impls[key]
	if !ok {
		targets = findImplementations(t, g, recv, fn)
		impls[key] = targets
	}
	for _, callee := range targets {
		caller.Calls = append(caller.Calls, CallEdge{Site: call, Callee: callee, ViaInterface: true})
	}
}

// implKey identifies an interface method call target: the method as
// called through one interface type.
type implKey struct {
	recv types.Type
	fn   *types.Func
}

// findImplementations returns the in-tree methods that an interface
// method call can dispatch to, in deterministic order.
func findImplementations(t *Tree, g *CallGraph, recv types.Type, fn *types.Func) []*FuncNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, p := range t.Pkgs {
		if p.Pkg == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
				continue
			}
			sel := types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name())
			if sel == nil {
				continue
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			if node, ok := g.Nodes[m]; ok && !seen[node] {
				seen[node] = true
				out = append(out, node)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.FullName() < out[j].Fn.FullName() })
	return out
}

// reachStep records how a function was first reached during the
// breadth-first walk, for path reconstruction in diagnostics.
type reachStep struct {
	from *FuncNode // nil for roots
	via  CallEdge
}

// Reachable walks the graph breadth-first from the given roots and
// returns, for every reachable node, the step that first reached it.
// Roots map to a step with a nil origin. Breadth-first order makes the
// recorded paths shortest, so diagnostics explain sites with the most
// direct chain from a root.
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]reachStep {
	reached := make(map[*FuncNode]reachStep, len(roots))
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := reached[r]; ok {
			continue
		}
		reached[r] = reachStep{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			if _, ok := reached[e.Callee]; ok {
				continue
			}
			reached[e.Callee] = reachStep{from: n, via: e}
			queue = append(queue, e.Callee)
		}
	}
	return reached
}

// path reconstructs the call chain from a root to n, shortest first.
func path(reached map[*FuncNode]reachStep, n *FuncNode) []*FuncNode {
	var rev []*FuncNode
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		step, ok := reached[cur]
		if !ok {
			break
		}
		cur = step.from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
