// Command figretvet runs the project's static-analysis suite
// (internal/analysis) over the module: detrange, detsource, viewsafe and
// errwire — the machine-checked versions of the determinism,
// view-aliasing and wire-error contracts documented in DESIGN.md §13.
//
// Usage:
//
//	figretvet ./...
//	figretvet ./internal/wire ./internal/serve
//
// Exit status is non-zero when any diagnostic is reported. Suppress a
// justified finding with a directive on (or directly above) the flagged
// line:
//
//	//figret:allow(<check>) <reason>
//
// Unexplained, unknown or unused directives are themselves errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"figret/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: figretvet [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the project's invariant analyzers (DESIGN.md §13):\n")
		for _, a := range analysis.DefaultSuite().Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "figretvet: %v\n", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figretvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figretvet: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.DefaultSuite().Run(pkgs)
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "figretvet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
