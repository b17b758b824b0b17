// Package analysis is a small, dependency-free analyzer framework modeled
// on golang.org/x/tools/go/analysis. The container this repo builds in has
// no module proxy access, so instead of depending on x/tools the framework
// re-implements the minimal surface the project's analyzers need: an
// Analyzer descriptor, a per-package Pass with full type information, a
// loader built on `go list -export` plus the standard library's gc export
// data importer, and `//lint:ignore`-style suppressions.
//
// The analyzers themselves live in subpackages (hotalloc, ctxflow, floateq
// and lockbalance, each a walk over the typed AST) and are registered in
// internal/analysis/suite, which cmd/3dpro-lint drives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. Must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description: first line is a summary,
	// the rest explains the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer

	// PkgPath is the import path `go list` reported for the package
	// (fixture packages in tests use synthetic paths).
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	sortDiagnostics(p.diags)
	return p.diags
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// PathHasSuffix reports whether pkgPath ends with the path-segment suffix
// (e.g. "internal/core" matches "repro/internal/core" and "internal/core"
// but not "repro/xinternal/core"). Analyzers scope themselves by suffix so
// fixture packages with synthetic module prefixes match too.
func PathHasSuffix(pkgPath, suffix string) bool {
	if pkgPath == suffix {
		return true
	}
	return strings.HasSuffix(pkgPath, "/"+suffix)
}

// PathHasAnySuffix reports whether pkgPath matches any of the suffixes.
func PathHasAnySuffix(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if PathHasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// IsMethodOn reports whether the called object is the named method on the
// named type defined in a package whose path ends with pkgSuffix. Pointer
// receivers match too.
func IsMethodOn(obj types.Object, pkgSuffix, typeName, method string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if tn.Name() != typeName || tn.Pkg() == nil {
		return false
	}
	return PathHasSuffix(tn.Pkg().Path(), pkgSuffix)
}

// CalleeFunc resolves the *types.Func statically called by call, or nil for
// dynamic calls (function values, interface methods resolve to the interface
// method object, which is still returned).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
