// Package analysis is the project's static-analysis suite: a
// dependency-free (stdlib go/ast + go/parser + go/types only, the same
// ethos as internal/obs) driver that loads and type-checks every package
// in the module and runs project-specific analyzers enforcing the
// contracts the repository's correctness rests on — bitwise-deterministic
// training/eval/serving (DESIGN.md §6/§10), the capacity-clipped view
// contract of traffic.Trace.Slice (§7), and never-panic error-returning
// wire decoders (§11).
//
// Each analyzer reports file:line diagnostics. A diagnostic is suppressed
// by a directive comment on the flagged line or the line directly above:
//
//	//figret:allow(<check>) <reason>
//
// The reason is mandatory — an unexplained suppression is itself an
// error — and so are directives naming an unknown check or suppressing
// nothing (stale allows must be deleted, not accumulated). The directive
// errors are reported under the reserved check name "allow" and cannot
// themselves be suppressed.
//
// DESIGN.md §13 documents every enforced invariant and how to add an
// analyzer; cmd/figretvet is the CLI gate (`figretvet ./...`).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllowCheck is the reserved check name under which directive hygiene
// errors (missing reason, unknown check, unused allow) are reported.
// Diagnostics of this check cannot be suppressed.
const AllowCheck = "allow"

// directivePrefix introduces a suppression comment.
const directivePrefix = "//figret:allow("

// Analyzer is one project-invariant check. Analyzers are stateless: Run
// is called once per package and reports through the pass.
type Analyzer struct {
	// Name is the check name used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one type-checked package.
	Run func(*Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset positions every node of Files.
	Fset *token.FileSet
	// Path is the package's import path (e.g. "figret/internal/nn").
	Path string
	// Files are the package's syntax trees, test files included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// testFiles marks which of Files are _test.go files.
	testFiles map[*ast.File]bool

	diags *[]Diagnostic
}

// IsTestFile reports whether f is a _test.go file of the package.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// Reportf records a diagnostic for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Check names the analyzer (or AllowCheck for directive errors).
	Check string
	// Pos locates the violation.
	Pos token.Position
	// Message states the violated contract.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Suite is an ordered set of analyzers run together over packages.
type Suite struct {
	Analyzers []*Analyzer
}

// checkNames returns the set of valid check names.
func (s *Suite) checkNames() map[string]bool {
	names := make(map[string]bool, len(s.Analyzers))
	for _, a := range s.Analyzers {
		names[a.Name] = true
	}
	return names
}

// Run executes every analyzer over every package, applies the allow
// directives, appends directive-hygiene errors, and returns the
// surviving diagnostics sorted by position then check.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	var raw []Diagnostic
	var dirs []*directive
	for _, pkg := range pkgs {
		for _, a := range s.Analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Path:      pkg.Path,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				Info:      pkg.Info,
				testFiles: pkg.testFiles,
				diags:     &raw,
			}
			a.Run(pass)
		}
		for _, f := range pkg.Files {
			dirs = append(dirs, parseDirectives(pkg.Fset, f)...)
		}
	}
	return s.apply(raw, dirs)
}

// apply filters raw diagnostics through the directives and appends
// directive-hygiene errors.
func (s *Suite) apply(raw []Diagnostic, dirs []*directive) []Diagnostic {
	valid := s.checkNames()
	// Index directives by (file, line, check); a directive covers its own
	// line and the one below it.
	type key struct {
		file  string
		line  int
		check string
	}
	byLine := make(map[key][]*directive)
	for _, d := range dirs {
		if !valid[d.check] && d.check != "" {
			continue // reported as unknown below, never matches
		}
		k := key{d.pos.Filename, d.pos.Line, d.check}
		byLine[k] = append(byLine[k], d)
		k.line++
		byLine[k] = append(byLine[k], d)
	}
	var out []Diagnostic
	for _, d := range raw {
		if d.Check == AllowCheck {
			out = append(out, d)
			continue
		}
		matched := false
		for _, dir := range byLine[key{d.Pos.Filename, d.Pos.Line, d.Check}] {
			dir.used = true
			matched = true
		}
		if !matched {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		switch {
		case dir.malformed:
			out = append(out, Diagnostic{Check: AllowCheck, Pos: dir.pos,
				Message: "malformed directive: want //figret:allow(<check>) <reason>"})
		case !valid[dir.check]:
			out = append(out, Diagnostic{Check: AllowCheck, Pos: dir.pos,
				Message: fmt.Sprintf("unknown check %q in allow directive", dir.check)})
		case dir.reason == "":
			out = append(out, Diagnostic{Check: AllowCheck, Pos: dir.pos,
				Message: fmt.Sprintf("allow(%s) without a reason: every suppression must be justified", dir.check)})
		case !dir.used:
			out = append(out, Diagnostic{Check: AllowCheck, Pos: dir.pos,
				Message: fmt.Sprintf("unused allow(%s): nothing on this or the next line triggers it; delete the directive", dir.check)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// directive is one parsed //figret:allow comment.
type directive struct {
	check     string
	reason    string
	pos       token.Position
	malformed bool
	used      bool
}

// parseDirectives extracts the allow directives of one file.
func parseDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			d := &directive{pos: fset.Position(c.Pos())}
			rest := text[len(directivePrefix):]
			close := strings.IndexByte(rest, ')')
			if close < 0 {
				d.malformed = true
				out = append(out, d)
				continue
			}
			d.check = strings.TrimSpace(rest[:close])
			d.reason = strings.TrimSpace(rest[close+1:])
			if d.check == "" {
				d.malformed = true
			}
			out = append(out, d)
		}
	}
	return out
}

// --- shared analyzer helpers ---------------------------------------------

// pathIn reports whether path is one of the configured package paths
// (external test units, suffixed ".test", inherit their package's
// scope).
func pathIn(path string, set []string) bool {
	path = scopePath(path)
	for _, s := range set {
		if s == path {
			return true
		}
	}
	return false
}

// funcObj resolves a call expression's callee to a *types.Func (function
// or method), or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// namedRecv returns the named type of a method's receiver, unwrapping
// one pointer, or nil for plain functions.
func namedRecv(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
