// Package lockbalance checks that every Lock/RLock, in every package, is
// released in one shape that a short AST walk can check.
//
// A `x.Lock()` (or `x.RLock()`) statement must be released later in the
// same block, by `defer x.Unlock()` or a plain `x.Unlock()`. Between the
// lock and the release there may be no `return`, no `panic(...)`, no
// `goto`, no labeled jump, and no `break`/`continue` that leaves the block;
// one bound to a loop, switch or select nested between them is fine. So a
// lock released in two branches is a finding: decide under the lock,
// release once, then act. No test sees a lock left held on a path it does
// not drive until a later caller blocks on it (DESIGN.md §12).
//
// Locks are keyed by receiver text (types.ExprString), so `s.mu.Lock()`
// pairs with `s.mu.Unlock()` while `a.mu` and `b.mu` stay distinct; read
// locks get their own key, so RLock/Unlock does not balance. Function
// literals are opaque: each body is a block of its own. TryLock and
// TryRLock are ignored. Lock-bearing structs passed by value are go vet's
// copylocks check. A function whose contract is to return holding the lock
// carries a reasoned //lint:ignore lockbalance directive.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc: "Lock/Unlock pairing in one block\n\n" +
		"Every sync.Mutex/RWMutex acquisition must be released later in the\n" +
		"same block, by a defer or a plain call, with no return, panic, goto\n" +
		"or jump out of the block in between.",
	Run: run,
}

// readSuffix marks read-lock keys ("s.mu" held via RLock is "s.mu#r").
const readSuffix = "#r"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkBlock(pass, n.List)
			case *ast.CaseClause:
				checkBlock(pass, n.Body)
			case *ast.CommClause:
				checkBlock(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkBlock reports every acquisition statement in stmts that the rest
// of the block does not release in the accepted shape.
func checkBlock(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		call := stmtCall(s)
		if _, deferred := s.(*ast.DeferStmt); deferred || call == nil {
			continue
		}
		key, acquire, ok := lockOp(pass.Info, call)
		if !ok || !acquire || releasedLater(pass.Info, key, stmts[i+1:]) {
			continue
		}
		name, isRead := strings.CutSuffix(key, readSuffix)
		verb, unlock := "Lock", "Unlock"
		if isRead {
			verb, unlock = "RLock", "RUnlock"
		}
		pass.Reportf(call.Pos(),
			"%s.%s() may be held at function exit: release it later in the same block by defer %s.%s() or %s.%s(), with no return, panic or jump out of the block in between",
			name, verb, name, unlock, name, unlock)
	}
}

// stmtCall returns the call of an expression or defer statement.
func stmtCall(s ast.Stmt) *ast.CallExpr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ := ast.Unparen(s.X).(*ast.CallExpr)
		return call
	case *ast.DeferStmt:
		return s.Call
	}
	return nil
}

// releasedLater reports whether rest releases key, deferred or not, before
// any statement that could leave the block with the lock held.
func releasedLater(info *types.Info, key string, rest []ast.Stmt) bool {
	for _, s := range rest {
		if call := stmtCall(s); call != nil {
			if k, acquire, ok := lockOp(info, call); ok && !acquire && k == key {
				return true
			}
		}
		if leaves(info, s, false, false) {
			return false
		}
	}
	return false
}

// leaves reports whether n holds a way out of the block it sits in: a
// return, a panic, a goto, a labeled break or continue, or a plain break
// or continue that no loop, switch or select inside the block binds.
// inLoop and inBreakable say whether a loop, or any of the three, already
// encloses n there. Function literals are not entered.
func leaves(info *types.Info, n ast.Node, inLoop, inBreakable bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		var body *ast.BlockStmt
		loop := inLoop
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			switch m.Tok {
			case token.BREAK:
				found = m.Label != nil || !inBreakable
			case token.CONTINUE:
				found = m.Label != nil || !inLoop
			case token.GOTO:
				found = true
			}
		case *ast.CallExpr:
			found = isPanic(info, m)
		case *ast.ForStmt:
			body, loop = m.Body, true
		case *ast.RangeStmt:
			body, loop = m.Body, true
		case *ast.SwitchStmt:
			body = m.Body
		case *ast.TypeSwitchStmt:
			body = m.Body
		case *ast.SelectStmt:
			body = m.Body
		}
		if body != nil {
			found = leaves(info, body, loop, true)
			return false
		}
		return !found
	})
	return found
}

// isPanic reports whether call is a call of the panic builtin.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// lockOp classifies call as an acquisition or a release of a
// sync.Mutex/sync.RWMutex, returning the lock key and whether the call
// acquires (true) or releases (false).
func lockOp(info *types.Info, call *ast.CallExpr) (key string, acquire, ok bool) {
	callee := analysis.CalleeFunc(info, call)
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if callee == nil || !isSel {
		return "", false, false
	}
	recv := types.ExprString(sel.X)
	switch {
	case analysis.IsMethodOn(callee, "sync", "Mutex", "Lock"),
		analysis.IsMethodOn(callee, "sync", "RWMutex", "Lock"):
		return recv, true, true
	case analysis.IsMethodOn(callee, "sync", "Mutex", "Unlock"),
		analysis.IsMethodOn(callee, "sync", "RWMutex", "Unlock"):
		return recv, false, true
	case analysis.IsMethodOn(callee, "sync", "RWMutex", "RLock"):
		return recv + readSuffix, true, true
	case analysis.IsMethodOn(callee, "sync", "RWMutex", "RUnlock"):
		return recv + readSuffix, false, true
	}
	return "", false, false
}
