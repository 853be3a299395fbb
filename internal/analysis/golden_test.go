package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testdataImportBase is the synthetic import-path prefix of the corpus
// packages.
const testdataImportBase = "figret/internal/analysis/testdata/src/"

// goldenSuites configures each analyzer for its corpus package: the
// same constructors as DefaultSuite, scoped to the testdata import path.
func goldenSuites() map[string]func(path string) *Suite {
	one := func(a *Analyzer) *Suite { return &Suite{Analyzers: []*Analyzer{a}} }
	return map[string]func(path string) *Suite{
		"detrange":  func(p string) *Suite { return one(NewDetRange([]string{p})) },
		"detsource": func(p string) *Suite { return one(NewDetSource([]string{p})) },
		"viewsafe": func(p string) *Suite {
			return one(NewViewSafe([]ViewFunc{
				{Pkg: p, Recv: "Buf", Name: "View", Fields: []string{"Items"}},
				{Pkg: p, Name: "MakeView"},
			}))
		},
		"errwire": func(p string) *Suite { return one(NewErrWire(p)) },
	}
}

// TestGoldenDiagnostics runs every analyzer over its corpus package and
// diffs the produced diagnostics exactly against the // want
// expectations: every diagnostic must be expected, every expectation
// must fire, one-to-one per (file, line, check).
func TestGoldenDiagnostics(t *testing.T) {
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	suites := goldenSuites()
	var checks []string
	for c := range suites {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	for _, check := range checks {
		t.Run(check, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", check)
			path := testdataImportBase + check
			pkgs, err := loader.LoadDir(dir, path)
			if err != nil {
				t.Fatal(err)
			}
			diags := suites[check](path).Run(pkgs)
			wants := parseWants(t, pkgs)
			diffExact(t, diags, wants)
		})
	}
}

// want is one parsed expectation.
type want struct {
	file    string
	line    int
	check   string
	pattern *regexp.Regexp
	source  string
	matched bool
}

// wantToken matches one check:"regexp" token.
var wantToken = regexp.MustCompile(`([a-z]+):"((?:[^"\\]|\\.)*)"`)

// parseWants extracts // want expectations from the corpus sources. A
// comment has the form
//
//	// want [@±N] check:"regexp" [check:"regexp" ...]
//
// where the optional @±N offsets the expected line relative to the
// comment (for diagnostics that land on directive lines, which consume
// their whole source line).
func parseWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	seenFile := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if seenFile[name] {
				continue
			}
			seenFile[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				idx := strings.Index(line, "// want ")
				if idx < 0 {
					continue
				}
				rest := strings.TrimSpace(line[idx+len("// want "):])
				offset := 0
				if strings.HasPrefix(rest, "@") {
					sp := strings.IndexByte(rest, ' ')
					if sp < 0 {
						t.Fatalf("%s:%d: malformed want offset %q", name, i+1, rest)
					}
					off, err := strconv.Atoi(rest[1:sp])
					if err != nil {
						t.Fatalf("%s:%d: malformed want offset %q: %v", name, i+1, rest, err)
					}
					offset = off
					rest = strings.TrimSpace(rest[sp+1:])
				}
				toks := wantToken.FindAllStringSubmatch(rest, -1)
				if len(toks) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", name, i+1, rest)
				}
				for _, tok := range toks {
					src, err := strconv.Unquote(`"` + tok[2] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, tok[2], err)
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, src, err)
					}
					wants = append(wants, &want{
						file: name, line: i + 1 + offset, check: tok[1],
						pattern: re, source: src,
					})
				}
			}
		}
	}
	return wants
}

// diffExact matches diagnostics against wants one-to-one and fails on
// any unmatched entry on either side.
func diffExact(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line || w.check != d.Check {
				continue
			}
			if !w.pattern.MatchString(d.Message) {
				t.Errorf("%s:%d: [%s] message %q does not match want %q",
					relFile(d.Pos.Filename), d.Pos.Line, d.Check, d.Message, w.source)
			}
			w.matched = true
			found = true
			break
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s:%d:%d: [%s] %s",
				relFile(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic: %s:%d: [%s] want %q fired nothing",
				relFile(w.file), w.line, w.check, w.source)
		}
	}
}

// relFile shortens a corpus path for failure output.
func relFile(name string) string {
	if i := strings.Index(name, "testdata"+string(filepath.Separator)); i >= 0 {
		return name[i:]
	}
	return name
}

// moduleRoot locates the repository root from the test's working
// directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
