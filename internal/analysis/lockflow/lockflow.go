// Package lockflow is the lock-tracking dataflow under the lockbalance
// analyzer. It runs a may-analysis ("which locks might be held here?") over
// a function body's CFG.
//
// Locks are identified by the source text of the receiver expression
// (types.ExprString), so `s.mu.Lock()` and `s.mu.Unlock()` pair up while
// `a.mu` and `b.mu` stay distinct. Read locks get a "#r" key suffix so an
// RLock/Unlock mismatch doesn't cancel out. This textual keying is the
// usual engineering compromise: it cannot prove aliasing, but within one
// function body receiver text is a faithful identity in practice.
//
// sync.Mutex.TryLock / sync.RWMutex.TryLock / TryRLock are ignored: their
// acquisition is branch-dependent and tracking them without path
// sensitivity would only manufacture false positives.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// ReadSuffix marks read-lock keys ("s.mu" held via RLock is "s.mu#r").
const ReadSuffix = "#r"

// Fact maps a lock key to the position of the acquiring Lock/RLock call.
// It is a may-set: a key present means the lock might be held.
type Fact map[string]token.Pos

func (f Fact) clone() Fact {
	out := make(Fact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// Analysis is the result of running lock tracking over one function body.
type Analysis struct {
	Graph *cfg.Graph
	// In holds each reachable block's entry fact.
	In map[*cfg.Block]Fact
	// Deferred is the set of lock keys released by defer statements
	// anywhere in the body (conservatively assumed to run at every exit).
	Deferred map[string]bool

	info *types.Info
}

// Analyze builds the CFG of body and runs the may-held fixpoint.
func Analyze(body *ast.BlockStmt, info *types.Info) *Analysis {
	g := cfg.New(body)
	a := &Analysis{
		Graph:    g,
		Deferred: make(map[string]bool),
		info:     info,
	}
	for _, d := range g.Defers {
		if key, locked, ok := a.lockOp(d.Call); ok && !locked {
			a.Deferred[key] = true
		}
	}
	a.In = cfg.Forward(g, Fact{},
		func(b *cfg.Block, in Fact) Fact { return a.transferBlock(b, in) },
		joinFacts, equalFacts)
	return a
}

func joinFacts(x, y Fact) Fact {
	out := x.clone()
	for k, v := range y {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func equalFacts(x, y Fact) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if _, ok := y[k]; !ok {
			return false
		}
	}
	return true
}

func (a *Analysis) transferBlock(b *cfg.Block, in Fact) Fact {
	out := in.clone()
	for _, n := range b.Nodes {
		a.transferNode(n, out)
	}
	return out
}

// transferNode applies one node's lock effects to f in place. Function
// literals are opaque (their bodies run later, if at all) and deferred
// calls are modeled at exit, not here.
func (a *Analysis) transferNode(n ast.Node, f Fact) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if key, locked, ok := a.lockOp(m); ok {
				if locked {
					if _, held := f[key]; !held {
						f[key] = m.Pos()
					}
				} else {
					delete(f, key)
				}
			}
		}
		return true
	})
}

// lockOp classifies call as a lock acquisition or release on a
// sync.Mutex/sync.RWMutex receiver, returning the lock key and whether the
// operation acquires (true) or releases (false).
func (a *Analysis) lockOp(call *ast.CallExpr) (key string, locked, ok bool) {
	callee := analysis.CalleeFunc(a.info, call)
	if callee == nil {
		return "", false, false
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
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
		return recv + ReadSuffix, true, true
	case analysis.IsMethodOn(callee, "sync", "RWMutex", "RUnlock"):
		return recv + ReadSuffix, false, true
	}
	return "", false, false
}

// HeldAtExit returns the locks that may still be held when the function
// returns (or panics), excluding keys released by a defer.
func (a *Analysis) HeldAtExit() Fact {
	in, ok := a.In[a.Graph.Exit]
	if !ok {
		return Fact{}
	}
	out := make(Fact)
	for k, pos := range in {
		if !a.Deferred[k] {
			out[k] = pos
		}
	}
	return out
}

// Bodies yields every function body in file, declarations and function
// literals alike, in source order, so a per-body dataflow covers both.
func Bodies(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Body)
			}
		case *ast.FuncLit:
			fn(n.Body)
		}
		return true
	})
}
