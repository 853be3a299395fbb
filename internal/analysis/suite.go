package analysis

import "strings"

// Deterministic packages: everything whose outputs are covered by a
// bitwise contract — training and inference (nn, figret), the TE
// substrate and solver, the evaluation engine, the scenario matrix with
// its CRC-sealed goldens, the wire codec whose frames must encode
// identically on every run, and the trace store whose writer must emit
// byte-identical files for identical traces (the fuzz seed corpus is
// pinned to its output).
var detPackages = []string{
	"figret/internal/nn",
	"figret/internal/te",
	"figret/internal/solver",
	"figret/internal/figret",
	"figret/internal/eval",
	"figret/internal/scenario",
	"figret/internal/wire",
	"figret/internal/tracestore",
}

// View-returning functions under the PR 3 aliasing contract. The
// tracestore reader's Trace and At return windows into the mmap'd file
// (capacity-clipped, but still aliases of the mapping), so call sites
// must not retain them past the reader's Close.
var viewFuncs = []ViewFunc{
	{Pkg: "figret/internal/traffic", Recv: "Trace", Name: "Slice", Fields: []string{"Snapshots"}},
	{Pkg: "figret/internal/traffic", Recv: "Trace", Name: "WindowInto"},
	{Pkg: "figret/internal/tracestore", Recv: "Reader", Name: "Trace", Fields: []string{"Snapshots"}},
	{Pkg: "figret/internal/tracestore", Recv: "Reader", Name: "At"},
}

// wirePackage is the binary codec whose errors must never be discarded.
const wirePackage = "figret/internal/wire"

// DefaultSuite returns the project's analyzer suite with its production
// configuration — the one cmd/figretvet runs and CI gates on.
func DefaultSuite() *Suite {
	return &Suite{Analyzers: []*Analyzer{
		NewDetRange(detPackages),
		NewDetSource(detPackages),
		NewViewSafe(viewFuncs),
		NewErrWire(wirePackage),
	}}
}

// scopePath canonicalizes an analysis unit's path for scope matching:
// external test packages (path + ".test") inherit the scope of the
// package they test.
func scopePath(path string) string {
	return strings.TrimSuffix(path, ".test")
}
