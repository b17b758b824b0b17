// Package hotalloc enforces the refine hot path's allocation discipline.
//
// Two invariants from the PR-2 hot-path overhaul:
//
//  1. Code in the hot-path packages must never call mesh.Triangles(): it
//     builds a fresh []geom.Triangle on every call, and the candidate loop
//     evaluates thousands of pairs per query. The kernels run on the
//     memoized lanes of mesh.SoA().
//
//  2. Functions reachable from the per-object callbacks handed to
//     runPerTarget must not allocate slices per pair — per-worker scratch
//     (slot-indexed, see evalCtx.scratch) or a sync.Pool is required.
//     Allocations inside sync.Once.Do closures and inside the builder
//     closure handed to (*mesh.Mesh).Groups are exempt: those run at most
//     once per structure (a single-flighted build, a per-mesh memo), not
//     per pair.
//
//  3. The same functions must not sort with sort.Slice / sort.SliceStable:
//     both go through reflection (a reflect.Swapper and an interface-boxed
//     less per call), which on a path that sorts a handful of elements per
//     candidate pair costs more than the sort. slices.Sort / slices.SortFunc
//     are the typed equivalents.
//
// And one from the PR-18 encoder work: internal/ppvp is the write path's hot
// package — the decimation round runs its inner loop per candidate vertex —
// and has no dispatcher to root a reachability walk at, so there rules 1
// and 3 hold for the whole package: no Triangles(), no reflection sort.
package hotalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid mesh.Triangles(), per-pair slice allocation and reflection sorts on the refine and encode hot paths\n\n" +
		"In internal/core, internal/index/aabbtree, internal/shard, and internal/gpusim,\n" +
		"(*mesh.Mesh).Triangles() must not be called (use SoA()), functions reachable from runPerTarget\n" +
		"callbacks must not allocate slices (use per-worker scratch or a pool) nor\n" +
		"call sort.Slice/sort.SliceStable (use slices.SortFunc). In internal/ppvp, Triangles() and\n" +
		"sort.Slice/sort.SliceStable must not be called anywhere.",
	Run: run,
}

// hotPackages are the path-segment suffixes of packages on the refine hot
// path. Fixture packages match by the same suffixes. internal/shard and
// internal/gpusim joined in issue 8: the coordinator's merge path runs per
// query and the simulated device's kernels per pair, so the same allocation
// discipline applies.
var hotPackages = []string{"internal/core", "internal/index/aabbtree", "internal/shard", "internal/gpusim", "internal/ppvp"}

// encoderPackages are the hot packages whose every function is on the hot
// path, so the reflection-sort rule applies package-wide.
var encoderPackages = []string{"internal/ppvp"}

func run(pass *analysis.Pass) error {
	if !analysis.PathHasAnySuffix(pass.PkgPath, hotPackages...) {
		return nil
	}
	checkTrianglesCalls(pass)
	checkHotPathAllocs(pass)
	if analysis.PathHasAnySuffix(pass.PkgPath, encoderPackages...) {
		checkReflectionSorts(pass)
	}
	return nil
}

// isReflectionSort reports whether callee is sort.Slice or sort.SliceStable.
func isReflectionSort(callee *types.Func) bool {
	pkg := callee.Pkg()
	return pkg != nil && pkg.Path() == "sort" && (callee.Name() == "Slice" || callee.Name() == "SliceStable")
}

// checkReflectionSorts flags every reflection sort of the package.
func checkReflectionSorts(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := analysis.CalleeFunc(pass.Info, call); callee != nil && isReflectionSort(callee) {
					pass.Reportf(call.Pos(), "sort.%s sorts through reflection, in a package that is hot path throughout; use slices.SortFunc", callee.Name())
				}
			}
			return true
		})
	}
}

// checkTrianglesCalls flags every call of (*mesh.Mesh).Triangles().
func checkTrianglesCalls(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := analysis.CalleeFunc(pass.Info, call); callee != nil &&
				analysis.IsMethodOn(callee, "internal/mesh", "Mesh", "Triangles") {
				pass.Reportf(call.Pos(),
					"no (*mesh.Mesh).Triangles() in hot-path packages: it allocates per call; use SoA()")
			}
			return true
		})
	}
}

// checkHotPathAllocs builds the package-local static call graph, marks
// everything reachable from the function literals passed to runPerTarget
// (per-pair) and flags slice allocations (make of a slice type, slice
// composite literals) and reflection-based sorts inside the reachable
// region.
func checkHotPathAllocs(pass *analysis.Pass) {
	// Map every function declaration's object to its body node, so static
	// calls can be followed.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// Per-pair roots: function literals appearing as arguments to a
	// runPerTarget call. The callback runs once per target object, so
	// everything it reaches is per-pair-or-worse.
	var perPairRoots []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(pass.Info, call)
			if callee == nil || callee.Name() != "runPerTarget" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					perPairRoots = append(perPairRoots, lit.Body)
				}
			}
			return true
		})
	}

	flagReachable(pass, decls, perPairRoots)
}

// buildsOnce reports whether callee runs its closure argument at most once
// per structure rather than per pair: sync.Once.Do, and the partition
// builder handed to (*mesh.Mesh).Groups, which runs only when the mesh has
// no memoized partition yet.
func buildsOnce(callee *types.Func) bool {
	return analysis.IsMethodOn(callee, "sync", "Once", "Do") ||
		analysis.IsMethodOn(callee, "internal/mesh", "Mesh", "Groups")
}

// flagReachable walks the package-local static call graph from the given
// root bodies, flagging slice allocations and reflection sorts in every
// newly visited body. Edges into build-once closures (see buildsOnce) are
// not followed; edges into runPerTarget are not followed either — the
// dispatcher body runs once per query, and its callbacks are already roots
// of the per-pair region.
func flagReachable(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, worklist []ast.Node) {
	visited := make(map[ast.Node]bool)
	reachedFns := make(map[*types.Func]bool)
	for len(worklist) > 0 {
		body := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if visited[body] {
			continue
		}
		visited[body] = true
		flagSliceAllocs(pass, body)
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(pass.Info, call)
			if callee == nil {
				return true
			}
			if buildsOnce(callee) {
				return false // the closure is a one-time build, not per-pair
			}
			if callee.Name() == "runPerTarget" {
				return false // per-query dispatcher; callbacks are separate roots
			}
			if fd, ok := decls[callee]; ok && !reachedFns[callee] {
				reachedFns[callee] = true
				worklist = append(worklist, fd.Body)
			}
			return true
		})
	}
}

// flagSliceAllocs reports make([]T, ...), []T{...} and sort.Slice /
// sort.SliceStable calls inside body, skipping subtrees of build-once calls
// and runPerTarget calls (whose callback literals are flagged as their own
// roots).
func flagSliceAllocs(pass *analysis.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := analysis.CalleeFunc(pass.Info, n); callee != nil {
				if buildsOnce(callee) {
					// The closure is a one-time build; skip its subtree.
					return false
				}
				if isReflectionSort(callee) {
					pass.Reportf(n.Pos(), "sort.%s sorts through reflection and is reachable from a runPerTarget callback (per-pair hot path); use slices.SortFunc",
						callee.Name())
				}
				if callee.Name() == "runPerTarget" {
					// The callback literal is a per-pair root of its own;
					// skipping here avoids double reports.
					return false
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					if isSliceType(pass.Info.Types[n.Args[0]].Type) {
						pass.Reportf(n.Pos(), "slice allocation reachable from a runPerTarget callback (per-pair hot path); use per-worker scratch or a sync.Pool")
					}
				}
			}
		case *ast.CompositeLit:
			if isSliceType(pass.Info.Types[n].Type) {
				pass.Reportf(n.Pos(), "slice literal reachable from a runPerTarget callback (per-pair hot path); use per-worker scratch or a sync.Pool")
				return false // don't double-report nested element literals
			}
		}
		return true
	})
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
