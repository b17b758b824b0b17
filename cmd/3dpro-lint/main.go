// Command 3dpro-lint runs the project's custom static analyzers (see
// internal/analysis) over the given package patterns and exits non-zero on
// any unsuppressed finding. It is wired into `make lint` and `make ci`.
//
// Usage:
//
//	3dpro-lint [-run names] [-v] [packages ...]
//
// -run takes a comma-separated list of anchored analyzer-name regexps
// (`floateq`, `floateq,lockbalance`, `.*flow`); an element matching no
// registered analyzer is an error, never a silent no-op. With no packages,
// ./... is analyzed. Findings print in the familiar
// file:line:col vet format. Vetted false positives are silenced in the
// source with
//
//	//lint:ignore <analyzer> <one-line justification>
//
// on (or directly above) the offending line; the justification is
// mandatory, and directives naming unknown analyzers are themselves
// reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	run := flag.String("run", "", "comma-separated anchored regexps selecting analyzers (default: all)")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	verbose := flag.Bool("v", false, "also print suppressed findings")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: 3dpro-lint [-run regexp] [-v] [packages ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite.All {
			fmt.Printf("%-15s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers, err := suite.Select(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3dpro-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3dpro-lint:", err)
		os.Exit(2)
	}

	res, err := suite.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3dpro-lint:", err)
		os.Exit(2)
	}
	if *verbose {
		for _, d := range res.Suppressed {
			fmt.Fprintf(os.Stderr, "suppressed: %s\n", d)
		}
	}
	for _, d := range res.Findings {
		fmt.Println(d)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "3dpro-lint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
