package suite_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// moduleRoot locates the repo root so the smoke test can analyze ./... no
// matter which directory the test binary runs from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		t.Fatal("not running inside a module")
	}
	return filepath.Dir(gomod)
}

// TestSuiteCleanOverRepo is the CI gate: the whole repository must lint
// clean. Reintroducing a mesh.Triangles() call, a per-pair slice allocation
// or a reflection sort on the hot path, a context.Background() in a query
// entry point, a float == in the geometry packages, or a lock left held on
// some path out of a function fails this test.
func TestSuiteCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks every package; skipped in -short")
	}
	pkgs, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	res, err := suite.Run(pkgs, suite.All)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range res.Findings {
		t.Errorf("unsuppressed finding: %s", d)
	}
	// The vetted false positives (tritri's guarded da == db, the shutdown
	// drain contexts) must stay visible as suppressions, not silently
	// vanish: if one disappears the directive rotted and its analyzer lost
	// coverage.
	for _, name := range []string{"floateq", "ctxflow"} {
		found := false
		for _, d := range res.Suppressed {
			found = found || d.Analyzer == name
		}
		if !found {
			t.Errorf("expected a vetted //lint:ignore %s suppression in the tree, found none", name)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := suite.Select("")
	if err != nil || len(all) != len(suite.All) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(suite.All))
	}
	one, err := suite.Select("^floateq$")
	if err != nil || len(one) != 1 || one[0].Name != "floateq" {
		t.Fatalf("Select(^floateq$) = %v, err %v", one, err)
	}
	if _, err := suite.Select("nosuchanalyzer"); err == nil {
		t.Fatal("Select(nosuchanalyzer) should fail")
	}
	if _, err := suite.Select("("); err == nil {
		t.Fatal("Select with a broken regexp should fail")
	}
	two, err := suite.Select("floateq,lockbalance")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(floateq,lockbalance) = %v, err %v; want 2 analyzers", two, err)
	}
	// Regression (issue 8): a typo in a comma-separated -run list must be an
	// error naming the bad element, not a silent partial run.
	if _, err := suite.Select("floateq,lockblance"); err == nil {
		t.Fatal("Select(floateq,lockblance) should fail on the misspelled element")
	} else if !strings.Contains(err.Error(), "lockblance") {
		t.Fatalf("error should name the bad element, got: %v", err)
	}
	// Elements are anchored: a bare substring does not match.
	if _, err := suite.Select("balance"); err == nil {
		t.Fatal("Select(balance) should fail: names must match fully (use .*balance)")
	}
	sub, err := suite.Select(".*(alloc|balance)")
	if err != nil || len(sub) != 2 {
		t.Fatalf("Select(.*(alloc|balance)) = %v, err %v; want hotalloc+lockbalance", sub, err)
	}
	if _, err := suite.Select("floateq,,lockbalance"); err == nil {
		t.Fatal("Select with an empty element should fail")
	}
}

func TestKnownNames(t *testing.T) {
	names := suite.KnownNames()
	for _, want := range []string{"hotalloc", "ctxflow", "floateq", "lockbalance"} {
		if !names[want] {
			t.Errorf("analyzer %q not registered", want)
		}
	}
	if len(names) != len(suite.All) || len(suite.Names()) != len(suite.All) {
		t.Errorf("registry size mismatch: %d known, %d names, %d registered",
			len(names), len(suite.Names()), len(suite.All))
	}
}
