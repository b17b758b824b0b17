// Package goleak statically checks that every goroutine launched in the
// concurrency tiers — the shard coordinator (internal/shard) and the device
// simulator (internal/gpusim) — has a termination path on every CFG path.
//
// The check is reachability over the goroutine body's control-flow graph:
// a block that is reachable from entry but can never reach the function
// exit means the goroutine can get stuck forever once execution enters it.
// The CFG gives loops and selects their natural semantics, so the accepted
// exit idioms come out structurally:
//
//   - `for task := range ch { ... }` terminates when the channel is closed
//     (the range head has an exit edge);
//   - `select { case <-ctx.Done(): return ... }` arms that return or break
//     out of the loop are exit paths;
//   - `for {}` with no break/return, `select {}`, and a looping
//     single-armed select have no exit path and are flagged.
//
// Interprocedural blocking (a call that never returns) is out of scope;
// the runtime leak checker (internal/leakcheck) is the dynamic backstop.
package goleak

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: "goroutines in the shard/gpusim tiers must have a termination path on every CFG path\n\n" +
		"Every `go` statement in internal/shard and internal/gpusim must launch a body\n" +
		"whose every reachable block can reach the function exit — via return, a select\n" +
		"arm on ctx.Done()/abort, or ranging over a channel that the owner closes. A\n" +
		"`for {}` or single-armed select loop with no structural exit leaks the\n" +
		"goroutine when the query is canceled.",
	Run: run,
}

// scopePackages are the packages checked; goroutines elsewhere are covered
// by the runtime leak checker.
var scopePackages = []string{"internal/shard", "internal/gpusim"}

func run(pass *analysis.Pass) error {
	if !analysis.PathHasAnySuffix(pass.PkgPath, scopePackages...) {
		return nil
	}

	// Map same-package function declarations so `go name()` bodies can be
	// checked too, not just literals.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				if callee := analysis.CalleeFunc(pass.Info, g.Call); callee != nil {
					if fd, ok := decls[callee]; ok {
						body = fd.Body
					}
				}
			}
			if body == nil {
				return true // dynamic callee or other-package function
			}
			graph := cfg.New(body)
			if div := graph.Diverging(); len(div) > 0 {
				pos := g.Pos()
				detail := ""
				if len(div[0].Nodes) > 0 {
					p := pass.Fset.Position(div[0].Nodes[0].Pos())
					detail = " (stuck region starts at line " + strconv.Itoa(p.Line) + ")"
				}
				pass.Reportf(pos,
					"goroutine has no termination path on some branch%s; add a select on ctx.Done(), a stream abort, or a closed-channel exit", detail)
			}
			return true
		})
	}
	return nil
}
