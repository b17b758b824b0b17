package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSuppressions wraps one directive comment line into a file and
// collects it, so tables and the fuzzer share one harness.
func parseSuppressions(t testing.TB, comment string, known map[string]bool) (*Suppressions, bool) {
	t.Helper()
	src := "package p\n\nfunc f() {\n\t" + comment + "\n\ta := 1\n\t_ = a\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		return nil, false
	}
	return CollectSuppressions(fset, []*ast.File{f}, known), true
}

// TestSuppressionDirectiveForms pins the parser's contract line by line:
// which directive shapes suppress, which are malformed, and what the
// malformed diagnostic says. The directive sits on line 4, so it covers
// diagnostics on lines 4 and 5.
func TestSuppressionDirectiveForms(t *testing.T) {
	known := map[string]bool{"floateq": true, "hotalloc": true, "ctxflow": true}
	diag := func(analyzer string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: "p.go", Line: 5}}
	}
	cases := []struct {
		name       string
		comment    string
		suppresses []string // analyzers suppressed on the next line
		malformed  []string // substrings required in malformed messages, in order
	}{
		{
			name:       "single name",
			comment:    "//lint:ignore floateq tolerance vetted upstream",
			suppresses: []string{"floateq"},
		},
		{
			name:       "multi-name list",
			comment:    "//lint:ignore floateq,hotalloc one reason covers both",
			suppresses: []string{"floateq", "hotalloc"},
		},
		{
			// The name list ends at the first space: a spaced list parses
			// as "floateq," plus a reason, so the dangling comma is called
			// out instead of silently ignoring "hotalloc".
			name:       "spaces after commas end the list",
			comment:    "//lint:ignore floateq, hotalloc, ctxflow spaced list",
			suppresses: []string{"floateq"},
			malformed:  []string{"empty analyzer name"},
		},
		{
			name:       "tab between names and reason",
			comment:    "//lint:ignore floateq\ttab-separated reason",
			suppresses: []string{"floateq"},
		},
		{
			name:      "missing reason",
			comment:   "//lint:ignore floateq",
			malformed: []string{"malformed"},
		},
		{
			name:      "reason of only spaces",
			comment:   "//lint:ignore floateq    ",
			malformed: []string{"malformed"},
		},
		{
			name:      "no names at all",
			comment:   "//lint:ignore",
			malformed: []string{"malformed"},
		},
		{
			name:      "unknown analyzer",
			comment:   "//lint:ignore flaoteq typo in the name",
			malformed: []string{`unknown analyzer "flaoteq"`},
		},
		{
			name:       "one good name, one unknown",
			comment:    "//lint:ignore floateq,nosuch half the list is real",
			suppresses: []string{"floateq"},
			malformed:  []string{`unknown analyzer "nosuch"`},
		},
		{
			name:       "empty element in list",
			comment:    "//lint:ignore floateq,,hotalloc double comma",
			suppresses: []string{"floateq", "hotalloc"},
			malformed:  []string{"empty analyzer name"},
		},
		{
			name:      "trailing comma",
			comment:   "//lint:ignore floateq, dangling comma eats the reason word",
			malformed: []string{"empty analyzer name"},
			// "dangling..." is still a reason, and "floateq" still parses:
			suppresses: []string{"floateq"},
		},
		{
			name:       "unrelated comment",
			comment:    "// just prose mentioning lint:ignore semantics",
			suppresses: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sup, ok := parseSuppressions(t, tc.comment, known)
			if !ok {
				t.Fatalf("fixture source did not parse for %q", tc.comment)
			}
			for name := range known {
				want := false
				for _, s := range tc.suppresses {
					want = want || s == name
				}
				if got := sup.Suppressed(diag(name)); got != want {
					t.Errorf("Suppressed(%s) = %v, want %v", name, got, want)
				}
			}
			if len(sup.Malformed) != len(tc.malformed) {
				t.Fatalf("malformed = %v, want %d entries", sup.Malformed, len(tc.malformed))
			}
			for i, substr := range tc.malformed {
				if !strings.Contains(sup.Malformed[i].Message, substr) {
					t.Errorf("malformed[%d] = %q, want substring %q", i, sup.Malformed[i].Message, substr)
				}
			}
		})
	}
}

// TestSuppressionDirectiveCoversOwnAndNextLineOnly pins the two-line window:
// a directive must not leak to line+2.
func TestSuppressionDirectiveCoversOwnAndNextLineOnly(t *testing.T) {
	known := map[string]bool{"floateq": true}
	sup, ok := parseSuppressions(t, "//lint:ignore floateq window check", known)
	if !ok {
		t.Fatal("fixture did not parse")
	}
	for line, want := range map[int]bool{3: false, 4: true, 5: true, 6: false} {
		d := Diagnostic{Analyzer: "floateq", Pos: token.Position{Filename: "p.go", Line: line}}
		if got := sup.Suppressed(d); got != want {
			t.Errorf("line %d suppressed = %v, want %v", line, got, want)
		}
	}
}

// FuzzCollectSuppressions feeds arbitrary directive bodies through the
// parser. The invariants: never panic, never suppress under an analyzer
// name that is empty or unknown, and classify every //lint:ignore comment
// as contributing a suppression, a malformed diagnostic, or both.
func FuzzCollectSuppressions(f *testing.F) {
	for _, seed := range []string{
		"floateq reason",
		"floateq,hotalloc shared reason",
		"floateq",
		"",
		" ",
		",, ,",
		"floateq\treason",
		"floateq,,hotalloc reason",
		"a b c d",
		"floateq \t ",
		"floateq,нет unicode name",
		strings.Repeat("x,", 100) + " long list",
	} {
		f.Add(seed)
	}
	known := map[string]bool{"floateq": true, "hotalloc": true}
	f.Fuzz(func(t *testing.T, body string) {
		// Newlines would split the comment and change the shape of the file;
		// a line comment can't contain them anyway.
		if strings.ContainsAny(body, "\n\r") {
			t.Skip()
		}
		sup, ok := parseSuppressions(t, "//lint:ignore "+body, known)
		if !ok {
			t.Skip() // e.g. a NUL or BOM byte the parser rejects
		}
		suppressedAny := false
		for name := range known {
			for line := 1; line <= 7; line++ {
				d := Diagnostic{Analyzer: name, Pos: token.Position{Filename: "p.go", Line: line}}
				if !sup.Suppressed(d) {
					continue
				}
				suppressedAny = true
				if line != 4 && line != 5 {
					t.Fatalf("directive on line 4 suppressed line %d", line)
				}
			}
		}
		// The empty analyzer name must never be a suppression key.
		empty := Diagnostic{Analyzer: "", Pos: token.Position{Filename: "p.go", Line: 5}}
		if sup.Suppressed(empty) {
			t.Fatalf("empty analyzer name suppressed a diagnostic (body %q)", body)
		}
		if !suppressedAny && len(sup.Malformed) == 0 {
			t.Fatalf("directive %q neither suppressed nor reported malformed", body)
		}
		for _, m := range sup.Malformed {
			if m.Message == "" || m.Analyzer != "lint" {
				t.Fatalf("malformed diagnostic missing message/analyzer: %+v", m)
			}
		}
	})
}
