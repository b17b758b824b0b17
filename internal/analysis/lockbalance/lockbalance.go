// Package lockbalance checks Lock/Unlock and RLock/RUnlock pairing along
// every control-flow path, using the lockflow may-held dataflow, in every
// package.
//
// It reports a lock acquired in a function body that may still be held
// when the function returns — an early return or a panic(...) path skipped
// the Unlock — and is not released by a defer. The fix is almost always
// `defer mu.Unlock()` right after the Lock. No test catches this until a
// later caller blocks on the lock, which is why it is checked statically.
// Lock-bearing structs passed by value are go vet's copylocks check.
//
// Functions whose contract is to return holding the lock (lock helpers)
// are expected to carry a reasoned //lint:ignore lockbalance directive.
package lockbalance

import (
	"go/ast"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/lockflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc: "Lock/Unlock pairing on every CFG path\n\n" +
		"Every sync.Mutex/RWMutex acquisition must be released on every path\n" +
		"out of the function, early returns and panics included (defer preferred).",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		lockflow.Bodies(f, func(body *ast.BlockStmt) { checkBalance(pass, body) })
	}
	return nil
}

// checkBalance reports locks that may be held at function exit without a
// deferred release.
func checkBalance(pass *analysis.Pass, body *ast.BlockStmt) {
	a := lockflow.Analyze(body, pass.Info)
	held := a.HeldAtExit()
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return held[keys[i]] < held[keys[j]] })
	for _, k := range keys {
		name, isRead := strings.CutSuffix(k, lockflow.ReadSuffix)
		verb, unlock := "Lock", "Unlock"
		if isRead {
			verb, unlock = "RLock", "RUnlock"
		}
		pass.Reportf(held[k],
			"%s.%s() may be held at function exit on some path; release on every path or use defer %s.%s()",
			name, verb, name, unlock)
	}
}
