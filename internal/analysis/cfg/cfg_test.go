package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as the body of a function and returns its Graph.
// src is the statement list, without braces.
func build(t *testing.T, src string) *Graph {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, file)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return New(fd.Body)
}

// reachable is the set of blocks Forward reaches from Entry, the blocks a
// dataflow client gets a fact for.
func reachable(g *Graph) map[*Block]bool {
	type none struct{}
	in := Forward(g, none{},
		func(*Block, none) none { return none{} },
		func(x, _ none) none { return x },
		func(none, none) bool { return true })
	out := make(map[*Block]bool, len(in))
	for b := range in {
		out[b] = true
	}
	return out
}

// diverges reports whether no path from entry reaches exit: the body can
// never return, and lockflow gets no exit fact for it.
func diverges(g *Graph) bool { return !reachable(g)[g.Exit] }

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	if diverges(g) {
		t.Fatalf("straight-line code should reach exit:\n%s", g.Debug())
	}
}

func TestIfElseBothReach(t *testing.T) {
	g := build(t, "if cond() {\n a()\n} else {\n b()\n}\nc()")
	if diverges(g) {
		t.Fatalf("if/else should reach exit:\n%s", g.Debug())
	}
}

func TestReturnMakesFollowingUnreachable(t *testing.T) {
	g := build(t, "return\nafter()")
	reach := reachable(g)
	var afterBlock *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "after" {
						afterBlock = b
					}
				}
			}
		}
	}
	if afterBlock == nil {
		t.Fatalf("after() block not found:\n%s", g.Debug())
	}
	if reach[afterBlock] {
		t.Fatalf("code after return should be unreachable:\n%s", g.Debug())
	}
}

func TestPanicEdgesToExit(t *testing.T) {
	g := build(t, "if bad() {\n panic(\"x\")\n}\nok()")
	if diverges(g) {
		t.Fatalf("panic path should edge to exit:\n%s", g.Debug())
	}
}

func TestForeverLoopDiverges(t *testing.T) {
	g := build(t, "for {\n work()\n}")
	if !diverges(g) {
		t.Fatalf("for{} without break should diverge:\n%s", g.Debug())
	}
}

func TestForeverLoopWithBreakReaches(t *testing.T) {
	g := build(t, "for {\n if done() {\n  break\n }\n work()\n}")
	if diverges(g) {
		t.Fatalf("for{} with break should reach exit:\n%s", g.Debug())
	}
}

func TestForeverLoopWithReturnReaches(t *testing.T) {
	g := build(t, "for {\n if done() {\n  return\n }\n}")
	if diverges(g) {
		t.Fatalf("for{} with return should reach exit:\n%s", g.Debug())
	}
}

func TestCondLoopReaches(t *testing.T) {
	g := build(t, "for i := 0; i < n; i++ {\n work(i)\n}\nafter()")
	if diverges(g) {
		t.Fatalf("conditional for should reach exit:\n%s", g.Debug())
	}
}

func TestRangeLoopHasExitEdge(t *testing.T) {
	// Ranging over a channel terminates when the channel closes; the head's
	// structural exit edge models that.
	g := build(t, "for v := range ch {\n use(v)\n}")
	if diverges(g) {
		t.Fatalf("range loop should have an exit edge:\n%s", g.Debug())
	}
}

func TestEmptySelectDiverges(t *testing.T) {
	g := build(t, "select {}")
	if !diverges(g) {
		t.Fatalf("select{} should diverge:\n%s", g.Debug())
	}
}

func TestSelectLoopWithoutExitDiverges(t *testing.T) {
	// A single-armed select in an infinite loop: the arm loops back, so
	// nothing reaches exit.
	g := build(t, "for {\n select {\n case v := <-ch:\n  use(v)\n }\n}")
	if !diverges(g) {
		t.Fatalf("looping single-armed select should diverge:\n%s", g.Debug())
	}
}

func TestSelectWithReturnArmReaches(t *testing.T) {
	g := build(t, "for {\n select {\n case v := <-ch:\n  use(v)\n case <-ctx.Done():\n  return\n }\n}")
	if diverges(g) {
		t.Fatalf("select with return arm should reach exit:\n%s", g.Debug())
	}
}

func TestSelectBreakLeavesSelectNotLoop(t *testing.T) {
	// break inside a select arm exits the select, not the loop — still no
	// path out of the for{}.
	g := build(t, "for {\n select {\n case <-ch:\n  break\n }\n}")
	if !diverges(g) {
		t.Fatalf("break in select arm should not exit the loop:\n%s", g.Debug())
	}
}

func TestLabeledBreakExitsLoop(t *testing.T) {
	g := build(t, "loop:\nfor {\n select {\n case <-ch:\n  break loop\n }\n}\nafter()")
	if diverges(g) {
		t.Fatalf("labeled break should exit the loop:\n%s", g.Debug())
	}
}

func TestLabeledContinue(t *testing.T) {
	g := build(t, "outer:\nfor i := 0; i < n; i++ {\n for {\n  continue outer\n }\n}")
	if diverges(g) {
		t.Fatalf("labeled continue targets the outer loop (which has a cond exit):\n%s", g.Debug())
	}
}

func TestSwitchImplicitDefault(t *testing.T) {
	g := build(t, "switch x {\ncase 1:\n a()\ncase 2:\n b()\n}\nafter()")
	if diverges(g) {
		t.Fatalf("switch without default falls through to done:\n%s", g.Debug())
	}
}

func TestSwitchAllCasesReturnWithDefault(t *testing.T) {
	g := build(t, "switch x {\ncase 1:\n return\ndefault:\n return\n}\nafter()")
	reach := reachable(g)
	// after() must be unreachable: every case returns and there is a default.
	found := false
	for _, b := range g.Blocks {
		if reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			if strings.Contains(nodeText(n), "after") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("after() should be unreachable:\n%s", g.Debug())
	}
}

func TestFallthrough(t *testing.T) {
	g := build(t, "switch x {\ncase 1:\n a()\n fallthrough\ncase 2:\n b()\n}")
	if diverges(g) {
		t.Fatalf("fallthrough chain should reach exit:\n%s", g.Debug())
	}
	// The case-1 block must have an edge to the case-2 block.
	var c1, c2 *Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.case" {
			if c1 == nil {
				c1 = b
			} else {
				c2 = b
			}
		}
	}
	if c1 == nil || c2 == nil {
		t.Fatalf("expected two case blocks:\n%s", g.Debug())
	}
	ok := false
	for _, s := range c1.Succs {
		if s == c2 {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("fallthrough edge missing:\n%s", g.Debug())
	}
}

func TestTypeSwitch(t *testing.T) {
	g := build(t, "switch v := x.(type) {\ncase int:\n use(v)\ncase string:\n use(v)\n}\nafter()")
	if diverges(g) {
		t.Fatalf("type switch should reach exit:\n%s", g.Debug())
	}
}

func TestGotoBackwardMakesLoop(t *testing.T) {
	g := build(t, "top:\nwork()\ngoto top")
	if !diverges(g) {
		t.Fatalf("goto loop without exit should diverge:\n%s", g.Debug())
	}
}

func TestGotoForward(t *testing.T) {
	g := build(t, "if skip() {\n goto done\n}\nwork()\ndone:\nafter()")
	if diverges(g) {
		t.Fatalf("forward goto should reach exit:\n%s", g.Debug())
	}
}

func TestDefersRecorded(t *testing.T) {
	g := build(t, "defer mu.Unlock()\nif x {\n defer f()\n}\nreturn")
	if len(g.Defers) != 2 {
		t.Fatalf("want 2 defers, got %d:\n%s", len(g.Defers), g.Debug())
	}
}

func TestNestedFuncLitNotInlined(t *testing.T) {
	// The literal's infinite loop must not make the enclosing function
	// diverge.
	g := build(t, "go func() {\n for {\n }\n}()\nafter()")
	if diverges(g) {
		t.Fatalf("nested FuncLit control flow must be opaque:\n%s", g.Debug())
	}
}

func TestForwardMustAnalysis(t *testing.T) {
	// Facts: set of "done" flags set on all paths. Must-analysis via
	// intersection join: a flag survives only if every path sets it.
	g := build(t, "if c {\n a()\n} else {\n a()\n b()\n}\nend()")
	type fact = map[string]bool
	transfer := func(b *Block, in fact) fact {
		out := make(fact, len(in)+1)
		for k := range in {
			out[k] = true
		}
		for _, n := range b.Nodes {
			txt := nodeText(n)
			for _, name := range []string{"a()", "b()"} {
				if strings.Contains(txt, name) {
					out[name] = true
				}
			}
		}
		return out
	}
	join := func(x, y fact) fact {
		out := make(fact)
		for k := range x {
			if y[k] {
				out[k] = true
			}
		}
		return out
	}
	equal := func(x, y fact) bool {
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if !y[k] {
				return false
			}
		}
		return true
	}
	in := Forward(g, fact{}, transfer, join, equal)
	exitIn, ok := in[g.Exit]
	if !ok {
		t.Fatalf("no fact at exit:\n%s", g.Debug())
	}
	if !exitIn["a()"] {
		t.Errorf("a() is called on every path; must-fact lost: %v", exitIn)
	}
	if exitIn["b()"] {
		t.Errorf("b() is only on one path; must-fact should not survive: %v", exitIn)
	}
}

func TestForwardLoopConverges(t *testing.T) {
	// A counter-free may-analysis over a loop must terminate and propagate
	// facts around the back edge.
	g := build(t, "x()\nfor i := 0; i < n; i++ {\n y()\n}\nz()")
	type fact = map[string]bool
	transfer := func(b *Block, in fact) fact {
		out := make(fact, len(in)+1)
		for k := range in {
			out[k] = true
		}
		for _, n := range b.Nodes {
			txt := nodeText(n)
			for _, name := range []string{"x()", "y()", "z()"} {
				if strings.Contains(txt, name) {
					out[name] = true
				}
			}
		}
		return out
	}
	join := func(x, y fact) fact {
		out := make(fact)
		for k := range x {
			out[k] = true
		}
		for k := range y {
			out[k] = true
		}
		return out
	}
	equal := func(x, y fact) bool {
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if !y[k] {
				return false
			}
		}
		return true
	}
	in := Forward(g, fact{}, transfer, join, equal)
	exitIn := in[g.Exit]
	for _, want := range []string{"x()", "z()"} {
		if !exitIn[want] {
			t.Errorf("%s should reach exit, got %v", want, exitIn)
		}
	}
	if !exitIn["y()"] {
		t.Errorf("loop body fact should flow out via may-join, got %v", exitIn)
	}
}

func nodeText(n ast.Node) string {
	// Cheap textual rendering good enough for tests: walk idents and
	// reconstruct call-ish text.
	var sb strings.Builder
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			sb.WriteString(id.Name)
			sb.WriteString("()")
		}
		return true
	})
	return sb.String()
}
