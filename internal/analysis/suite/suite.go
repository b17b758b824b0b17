// Package suite registers the project's analyzers and runs them over
// loaded packages with //lint:ignore suppression applied — the shared
// engine behind cmd/3dpro-lint and the CI smoke test.
package suite

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockbalance"
)

// All lists every analyzer the suite enforces, in report order: the three
// type-based checks, then lockbalance, the one check on the CFG/dataflow
// layer. Each is kept because it catches a mutation of production code
// that go test, -race, leakcheck and go vet miss (DESIGN.md §12).
var All = []*analysis.Analyzer{
	hotalloc.Analyzer,
	ctxflow.Analyzer,
	floateq.Analyzer,
	lockbalance.Analyzer,
}

// KnownNames is the directive-validation set for //lint:ignore.
func KnownNames() map[string]bool {
	m := make(map[string]bool, len(All))
	for _, a := range All {
		m[a.Name] = true
	}
	return m
}

// Select returns the analyzers matching the pattern (all when it is
// empty). The pattern is a comma-separated list of anchored regexps —
// `floateq`, `floateq,lockbalance`, `.*flow` — and every element must match
// at least one registered analyzer: a typo like `-run floateq,lockblance`
// is an error naming the element, never a silent no-op.
func Select(pattern string) ([]*analysis.Analyzer, error) {
	if pattern == "" {
		return All, nil
	}
	selected := make(map[string]bool)
	for _, elem := range strings.Split(pattern, ",") {
		elem = strings.TrimSpace(elem)
		if elem == "" {
			return nil, fmt.Errorf("-run %q contains an empty element", pattern)
		}
		re, err := regexp.Compile("^(?:" + elem + ")$")
		if err != nil {
			return nil, fmt.Errorf("bad -run pattern %q: %v", elem, err)
		}
		matched := false
		for _, a := range All {
			if re.MatchString(a.Name) {
				selected[a.Name] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("-run %q matches no analyzer (known: %s)", elem, strings.Join(Names(), ", "))
		}
	}
	var out []*analysis.Analyzer
	for _, a := range All {
		if selected[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Names returns the registered analyzer names in report order.
func Names() []string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return names
}

// Result is the outcome of one suite run.
type Result struct {
	// Findings are unsuppressed diagnostics, including malformed
	// //lint:ignore directives. Non-empty Findings fail the build.
	Findings []analysis.Diagnostic
	// Suppressed are diagnostics covered by a //lint:ignore directive.
	Suppressed []analysis.Diagnostic
}

// Run executes the analyzers over the packages, applying suppressions.
// Directive validation always uses the full registry so a //lint:ignore for
// an analyzer excluded by -run doesn't report as unknown.
func Run(pkgs []*analysis.Package, analyzers []*analysis.Analyzer) (*Result, error) {
	res := &Result{}
	known := KnownNames()
	for _, pkg := range pkgs {
		sup := analysis.CollectSuppressions(pkg.Fset, pkg.Files, known)
		res.Findings = append(res.Findings, sup.Malformed...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer: a,
				PkgPath:  pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			kept, suppressed := sup.Apply(pass.Diagnostics())
			res.Findings = append(res.Findings, kept...)
			res.Suppressed = append(res.Suppressed, suppressed...)
		}
	}
	return res, nil
}
