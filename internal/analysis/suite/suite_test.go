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
// clean. Reintroducing a mesh.Triangles() call on the hot path, a
// context.Background() in a query entry point, a mixed atomic access, or a
// float == in the geometry packages fails this test.
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
	// The vetted false positives (tritri's guarded da == db, the KNN sort
	// tie-breaks, the shutdown drain context) must stay visible as
	// suppressions, not silently vanish: if this count drops to zero the
	// directives rotted and the analyzers lost coverage.
	if len(res.Suppressed) == 0 {
		t.Error("expected vetted //lint:ignore suppressions in the tree, found none")
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
	two, err := suite.Select("goleak,wgbalance")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(goleak,wgbalance) = %v, err %v; want 2 analyzers", two, err)
	}
	// Regression (issue 8): a typo in a comma-separated -run list must be an
	// error naming the bad element, not a silent partial run.
	if _, err := suite.Select("goleak,lockblance"); err == nil {
		t.Fatal("Select(goleak,lockblance) should fail on the misspelled element")
	} else if !strings.Contains(err.Error(), "lockblance") {
		t.Fatalf("error should name the bad element, got: %v", err)
	}
	// Elements are anchored: a bare substring does not match.
	if _, err := suite.Select("balance"); err == nil {
		t.Fatal("Select(balance) should fail: names must match fully (use .*balance)")
	}
	sub, err := suite.Select(".*balance")
	if err != nil || len(sub) != 2 {
		t.Fatalf("Select(.*balance) = %v, err %v; want lockbalance+wgbalance", sub, err)
	}
	if _, err := suite.Select("goleak,,wgbalance"); err == nil {
		t.Fatal("Select with an empty element should fail")
	}
}

func TestKnownNames(t *testing.T) {
	names := suite.KnownNames()
	for _, want := range []string{
		"hotalloc", "ctxflow", "atomiccounter", "floateq",
		"goleak", "lockbalance", "chandiscipline", "wgbalance", "statsexhaustive",
	} {
		if !names[want] {
			t.Errorf("analyzer %q not registered", want)
		}
	}
	if len(names) != len(suite.All) || len(suite.Names()) != len(suite.All) {
		t.Errorf("registry size mismatch: %d known, %d names, %d registered",
			len(names), len(suite.Names()), len(suite.All))
	}
}
