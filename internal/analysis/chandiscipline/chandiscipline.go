// Package chandiscipline enforces the channel ownership and cancellation
// conventions of the concurrency tiers (core, shard, gpusim, server):
//
//  1. Blocking send in a cancelable path: inside a function that takes a
//     context.Context, a bare `ch <- v` (not a select arm, and not to a
//     locally made constant-capacity result channel) can block past
//     cancellation. Wrap it in a select with a ctx.Done()/abort arm.
//     The constant-capacity exemption sanctions the result-channel idiom:
//     `ch := make(chan result, 2)` sized to the number of sends can never
//     block, so selecting around it would be noise.
//
//  2. Close from non-owner: `close(ch)` where ch is a function parameter.
//     The owner — the function that made the channel, or its method set —
//     closes; a callee closing a channel it was handed invites
//     double-close panics.
//
//  3. Receive loop from a never-closed channel: `for v := range ch` where
//     ch is a package-local channel (unexported field or local variable)
//     that no code in the package ever closes or hands out, and the loop
//     body has no break/return/goto. The loop can never exit; the
//     goroutine running it leaks.
package chandiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "chandiscipline",
	Doc: "channel ownership and cancellation discipline in the concurrency tiers\n\n" +
		"Sends in context-taking functions must be select-wrapped (or go to a locally\n" +
		"made constant-capacity channel); only a channel's owner closes it (never a\n" +
		"callee that received it as a parameter); a range over a package-local channel\n" +
		"that nothing closes and that has no break/return is a guaranteed leak.",
	Run: run,
}

var scopePackages = []string{
	"internal/core", "internal/shard", "internal/gpusim", "internal/server",
}

func run(pass *analysis.Pass) error {
	if !analysis.PathHasAnySuffix(pass.PkgPath, scopePackages...) {
		return nil
	}
	facts := collectChannelFacts(pass)
	for _, f := range pass.Files {
		checkFile(pass, f, facts)
	}
	return nil
}

// pkgFacts is what the whole-package pre-scan learned about channels.
type pkgFacts struct {
	closed  map[types.Object]bool // some code in the package closes it
	escaped map[types.Object]bool // aliased/passed out of local reasoning
	params  map[types.Object]bool // declared as a function parameter
}

// chanObj resolves e to the types.Object identifying a channel: a plain
// identifier's object, or a selector's field object. Returns nil for
// anything more complex (map index, call result, ...).
func chanObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// collectChannelFacts walks the whole package recording, per channel
// object: whether any code closes it, whether it "escapes" local
// reasoning — appears as a call argument (other than close/len/cap),
// a return value, a composite-literal element, or the source of an
// assignment to something we don't track — and which objects are function
// parameters. A channel that escapes may be closed by code we cannot see,
// so rule 3 stays silent about it.
func collectChannelFacts(pass *analysis.Pass) *pkgFacts {
	facts := &pkgFacts{
		closed:  make(map[types.Object]bool),
		escaped: make(map[types.Object]bool),
		params:  make(map[types.Object]bool),
	}
	closed, escaped := facts.closed, facts.escaped
	note := func(set map[types.Object]bool, e ast.Expr) {
		if obj := chanObj(pass.Info, e); obj != nil {
			set[obj] = true
		}
	}
	isChan := func(e ast.Expr) bool {
		t := pass.Info.Types[e].Type
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				if n.Params != nil {
					for _, field := range n.Params.List {
						for _, name := range field.Names {
							if obj := pass.Info.Defs[name]; obj != nil {
								facts.params[obj] = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, r := range n.Values {
					if _, isMake := makeChanCap(pass.Info, r); isMake {
						continue
					}
					if isChan(r) {
						note(escaped, r)
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						switch b.Name() {
						case "close":
							if len(n.Args) == 1 {
								note(closed, n.Args[0])
							}
							return true
						case "len", "cap":
							return true
						}
					}
				}
				for _, arg := range n.Args {
					if isChan(arg) {
						note(escaped, arg)
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if isChan(r) {
						note(escaped, r)
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if isChan(v) {
						note(escaped, v)
					}
				}
			case *ast.AssignStmt:
				// `x := ch` aliases the channel; treat the RHS as escaped
				// unless it is a make call (initialization).
				for _, r := range n.Rhs {
					if _, isMake := makeChanCap(pass.Info, r); isMake {
						continue
					}
					if isChan(r) {
						note(escaped, r)
					}
				}
			case *ast.GoStmt:
				for _, arg := range n.Call.Args {
					if isChan(arg) {
						note(escaped, arg)
					}
				}
			}
			return true
		})
	}
	return facts
}

// makeChanCap reports whether e is a `make(chan T)` or `make(chan T, n)`
// call, and if so whether its capacity is a compile-time constant > 0.
func makeChanCap(info *types.Info, e ast.Expr) (constCap bool, isMake bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false, false
	}
	if b, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "make" {
		return false, false
	}
	if len(call.Args) == 0 {
		return false, false
	}
	t := info.Types[call.Args[0]].Type
	if t == nil {
		return false, false
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return false, false
	}
	if len(call.Args) < 2 {
		return false, true // unbuffered
	}
	tv := info.Types[call.Args[1]]
	return tv.Value != nil, true
}

// funcScope tracks, while walking one file, the stack of enclosing
// functions and which channels were made locally with constant capacity.
type funcScope struct {
	hasCtx bool
	// constCapLocal holds channel objects made in this function (or an
	// enclosing one — the slice is copied down) via make(chan T, const).
	constCapLocal map[types.Object]bool
}

func checkFile(pass *analysis.Pass, f *ast.File, facts *pkgFacts) {
	var walk func(n ast.Node, sc *funcScope)
	walk = func(n ast.Node, sc *funcScope) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncDecl:
			if n.Body == nil {
				return
			}
			inner := &funcScope{
				hasCtx:        hasCtxParam(pass.Info, n.Type),
				constCapLocal: make(map[types.Object]bool),
			}
			walkBody(pass, n.Body, inner, facts, walk)
			return
		case *ast.FuncLit:
			// A literal inherits the enclosing function's cancelability and
			// its locally made channels (it lexically captures them).
			inner := &funcScope{constCapLocal: make(map[types.Object]bool)}
			if sc != nil {
				inner.hasCtx = sc.hasCtx
				for k := range sc.constCapLocal {
					inner.constCapLocal[k] = true
				}
			}
			if hasCtxParam(pass.Info, n.Type) {
				inner.hasCtx = true
			}
			walkBody(pass, n.Body, inner, facts, walk)
			return
		}
		children(n, func(c ast.Node) { walk(c, sc) })
	}
	for _, d := range f.Decls {
		walk(d, nil)
	}
}

// walkBody checks one function body's statements under scope sc.
func walkBody(pass *analysis.Pass, body *ast.BlockStmt, sc *funcScope, facts *pkgFacts, walk func(ast.Node, *funcScope)) {
	var inner func(n ast.Node, inSelect bool)
	inner = func(n ast.Node, inSelect bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncDecl, *ast.FuncLit:
			walk(n, sc)
			return
		case *ast.AssignStmt:
			// Record constant-capacity local channels.
			for i, r := range n.Rhs {
				if constCap, isMake := makeChanCap(pass.Info, r); isMake && constCap && i < len(n.Lhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if obj := pass.Info.ObjectOf(id); obj != nil {
							sc.constCapLocal[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			// `var ch = make(chan T, 2)` counts as a local constant-capacity
			// channel too.
			for i, r := range n.Values {
				if constCap, isMake := makeChanCap(pass.Info, r); isMake && constCap && i < len(n.Names) {
					if obj := pass.Info.Defs[n.Names[i]]; obj != nil {
						sc.constCapLocal[obj] = true
					}
				}
			}
		case *ast.SelectStmt:
			// Sends that are comm clauses of a select with an alternative
			// (another arm or a default) cannot block unconditionally.
			multi := len(n.Body.List) >= 2
			for _, cs := range n.Body.List {
				cc, ok := cs.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil {
					inner(cc.Comm, multi)
				}
				for _, s := range cc.Body {
					inner(s, false)
				}
			}
			return
		case *ast.SendStmt:
			if sc.hasCtx && !inSelect {
				obj := chanObj(pass.Info, n.Chan)
				if obj == nil || !sc.constCapLocal[obj] {
					pass.Reportf(n.Pos(),
						"blocking send in a cancelable path; wrap in select with a ctx.Done()/abort arm (or use a locally made constant-capacity channel)")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" && len(n.Args) == 1 {
					if obj := chanObj(pass.Info, n.Args[0]); obj != nil && facts.params[obj] {
						pass.Reportf(n.Pos(),
							"close of channel received as a parameter; only the owner (the maker) should close")
					}
				}
			}
		case *ast.RangeStmt:
			checkRangeRecv(pass, n, facts)
		}
		children(n, func(c ast.Node) { inner(c, false) })
	}
	for _, s := range body.List {
		inner(s, false)
	}
}

// checkRangeRecv flags `for range ch` over a package-local, never-closed,
// never-escaping channel when the loop has no way out.
func checkRangeRecv(pass *analysis.Pass, n *ast.RangeStmt, facts *pkgFacts) {
	t := pass.Info.Types[n.X].Type
	if t == nil {
		return
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return
	}
	obj := chanObj(pass.Info, n.X)
	if obj == nil || facts.closed[obj] || facts.escaped[obj] {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	// Only claim package-complete knowledge for unexported fields and
	// non-parameter locals of this package.
	if v.Pkg() == nil || v.Pkg() != pass.Pkg {
		return
	}
	if v.IsField() {
		if v.Exported() {
			return
		}
	} else if facts.params[obj] || v.Parent() == pass.Pkg.Scope() && v.Exported() {
		return
	}
	if loopHasExit(n.Body) {
		return
	}
	pass.Reportf(n.Pos(),
		"receive loop over %q, which nothing in this package ever closes, has no break/return; the loop can never exit", v.Name())
}

// loopHasExit reports whether the loop body contains a break, return,
// goto, or panic that could leave the loop (nested function literals are
// opaque; breaks inside nested for/select/switch that target those
// constructs do not count).
func loopHasExit(body *ast.BlockStmt) bool {
	found := false
	depth := 0 // nesting of constructs that capture a bare break
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if found || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			switch n.Tok.String() {
			case "break":
				if depth == 0 || n.Label != nil {
					found = true
				}
			case "goto":
				found = true
			}
			return
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					found = true
					return
				}
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			depth++
			children(n, visit)
			depth--
			return
		}
		children(n, visit)
	}
	for _, s := range body.List {
		visit(s)
	}
	return found
}

// hasCtxParam reports whether ft has a parameter of type context.Context.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := info.Types[field.Type].Type
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}

// children calls fn for each immediate child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			fn(m)
		}
		return false
	})
}
