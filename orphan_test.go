package repro

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// orphanAllowlist names exported functions of internal/ packages that no
// non-test code calls but that stay on purpose, each with its reason. A key
// is a types.Func.FullName() or a package path, which covers every function
// of the package. An entry that excuses nothing fails the test.
var orphanAllowlist = map[string]string{
	"repro/internal/analysis/analysistest":   "fault harness: the analyzers' fixture tests run through it",
	"repro/internal/leakcheck":               "fault harness: the serving tests' goroutine-leak check",
	"repro/internal/faultinject":             "fault harness: tests arm, disarm and seed fault points through it",
	"repro/internal/mesh.Cube":               "fixture builder",
	"repro/internal/mesh.Tetrahedron":        "fixture builder",
	"repro/internal/mesh.Ellipsoid":          "fixture builder",
	"repro/internal/geom.SoAFromTriangles":   "fixture builder",
	"(repro/internal/geom.Vec3).ApproxEqual": "fixture: the geometry tests' tolerance comparison",

	"repro/internal/sdbms":                       "reference implementation: the exactness tests compare every join against it",
	"repro/internal/geom.TriTriDist":             "reference implementation: the bounded TriTriDist2 is tested against it",
	"(*repro/internal/mesh.Mesh).ContainsPoint":  "reference implementation: FuzzContainingObjects and FuzzRangeQuery",
	"(repro/internal/geom.Triangle).DistToPoint": "reference implementation: TestDegenerateConsistency and the aabbtree containment tests",
	"(repro/internal/geom.Segment).Dist":         "reference implementation: TestDegenerateConsistency",
	"(repro/internal/geom.Box3).DistToPoint":     "reference implementation: TestBoxMinDistWitness",

	"(*repro/internal/cache.Cache).NumShards": "introspection: the cache tests read the shard count",
	"(*repro/internal/cache.Cache).Len":       "introspection: TestEviction and TestClear read the entry count",
	"(repro/internal/cache.Stats).Sub":        "introspection: TestCountersMatchGlobalDelta and the core attribution tests",
	"repro/internal/obs.ParsePrometheusText":  "introspection: the /metrics tests parse the exposition with it",
}

// TestNoOrphanAPI fails on any exported function or method of an internal/
// package that no non-test code of this module or of the benchmark module
// refers to. Methods that implement an interface declared in the module or
// the standard library are exempt, as is orphanAllowlist.
func TestNoOrphanAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks every package; skipped in -short")
	}
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// The benchmark is a module of its own; its calls count as callers.
	benchPkgs, err := analysis.Load("benchmark", "./...")
	if err != nil {
		t.Fatalf("load benchmark: %v", err)
	}

	// Packages imported from export data carry objects distinct from the
	// source-checked ones, so references are matched by full name.
	used := map[string]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	visited := map[*types.Package]bool{}
	var collectIfaces func(p *types.Package)
	collectIfaces = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			collectIfaces(imp)
		}
	}
	for _, p := range append(benchPkgs, pkgs...) {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin().FullName()] = true
			}
		}
		collectIfaces(p.Pkg)
	}
	var orphans []string
	excused := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !ast.IsExported(id.Name) {
				continue
			}
			name := fn.FullName()
			if used[name] || implementsInterface(fn, ifaces) {
				continue
			}
			if key := allowKey(p.Path, name); key != "" {
				excused[key] = true
				continue
			}
			orphans = append(orphans, name+" ("+p.Fset.Position(id.Pos()).String()+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported but referenced by no non-test code: %s", o)
	}
	for key := range orphanAllowlist {
		if !excused[key] {
			t.Errorf("orphanAllowlist entry %s excuses nothing; remove it", key)
		}
	}
}

// allowKey returns the orphanAllowlist key covering the function, or "".
func allowKey(pkgPath, name string) string {
	for _, key := range []string{name, pkgPath} {
		if orphanAllowlist[key] != "" {
			return key
		}
	}
	return ""
}

// implementsInterface reports whether fn is a method through which its
// receiver type implements one of ifaces. Signatures are compared as
// strings because the interfaces may come from export data.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := recv.Type()
	if ptr, ok := named.(*types.Pointer); ok {
		named = ptr.Elem()
	}
	if _, ok := named.Underlying().(*types.Interface); ok {
		return true
	}
	have := map[string]bool{}
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		have[methodKey(mset.At(i).Obj().(*types.Func))] = true
	}
	for _, it := range ifaces {
		mine, all := false, true
		for i := 0; i < it.NumMethods() && all; i++ {
			m := it.Method(i)
			all = have[methodKey(m)]
			mine = mine || m.Name() == fn.Name()
		}
		if mine && all {
			return true
		}
	}
	return false
}

// methodKey is a method's name and parameter and result types, without
// parameter names.
func methodKey(m *types.Func) string {
	qual := func(p *types.Package) string { return p.Path() }
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Name())
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
