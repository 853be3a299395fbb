package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked analysis unit: a module package
// together with its in-package _test.go files (external
// <pkg>_test packages become their own unit).
type Package struct {
	// Path is the import path ("figret/internal/nn"; external test
	// packages carry a ".test" suffix).
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed syntax trees in filename order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records type-checker results for Files.
	Info *types.Info

	testFiles map[*ast.File]bool
}

// Loader loads and type-checks the module's packages using only the
// standard library: module-internal imports are type-checked from source
// recursively, and everything else (the standard library) goes through
// go/importer's source importer, so no build cache or export data is
// required.
//
// A Loader is single-use and not safe for concurrent use.
type Loader struct {
	// ModRoot is the absolute module root directory (where go.mod lives).
	ModRoot string
	// ModPath is the module path from go.mod ("figret").
	ModPath string

	fset *token.FileSet
	std  types.Importer
	// pure caches the no-test-file version of each module package, the
	// version other packages see when they import it.
	pure map[string]*types.Package
	// loading guards against import cycles during pure loads.
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at modRoot. The module
// path is read from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	modRoot, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from GOROOT
	// sources; with cgo disabled it picks the pure-Go variants (netgo,
	// os/user stubs), which is all the analysis needs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pure:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load loads the packages matching the patterns: "./..." (or "all") for
// every package under the module root, or "./rel/path" for single
// directories. Every returned package is fully type-checked with its
// in-package test files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all":
			all, err := l.walkDirs(l.ModRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModRoot, strings.TrimSuffix(pat, "/..."))
			all, err := l.walkDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
		default:
			d := filepath.Join(l.ModRoot, pat)
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.LoadDir(dir, l.importPath(dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// walkDirs returns every directory under root holding .go files,
// skipping testdata, hidden and underscore-prefixed directories.
func (l *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// importPath maps a directory under the module root to its import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// LoadDir loads the package in dir as import path path, returning one
// analysis unit for the package (with in-package test files) and, when
// present, one for its external _test package.
func (l *Loader) LoadDir(dir, path string) ([]*Package, error) {
	prod, intest, extest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(prod) == 0 && len(intest) == 0 && len(extest) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var units []*Package
	if len(prod)+len(intest) > 0 {
		unit, err := l.check(dir, path, append(append([]*ast.File(nil), prod...), intest...), intest)
		if err != nil {
			return nil, err
		}
		units = append(units, unit)
	}
	if len(extest) > 0 {
		unit, err := l.check(dir, path+".test", extest, extest)
		if err != nil {
			return nil, err
		}
		units = append(units, unit)
	}
	return units, nil
}

// parseDir parses every .go file of dir into production, in-package test
// and external-test file groups, each in filename order. Files are
// filtered through the host build context (//go:build lines and
// GOOS/GOARCH filename suffixes), so platform-gated pairs — e.g. nn's
// kernels_amd64.go / kernels_other.go — contribute exactly the
// declarations `go build` would compile here, not both halves at once.
func (l *Loader) parseDir(dir string) (prod, intest, extest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, nil, nil, err
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var pkgName string
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			if pkgName == "" {
				pkgName = f.Name.Name
			}
			prod = append(prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extest = append(extest, f)
		default:
			intest = append(intest, f)
		}
	}
	return prod, intest, extest, nil
}

// check type-checks one analysis unit.
func (l *Loader) check(dir, path string, files []*ast.File, testFiles []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	tf := make(map[*ast.File]bool, len(testFiles))
	for _, f := range testFiles {
		tf[f] = true
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		testFiles: tf,
	}, nil
}

// Import resolves an import during type-checking: module-internal paths
// are type-checked from source (without test files, memoized), all
// others go to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pure[path]; ok {
		return p, nil
	}
	if path != l.ModPath && !strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.pure[path] = p
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir := filepath.Join(l.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/"))
	prod, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(prod) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, prod, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking import %s: %w", path, err)
	}
	l.pure[path] = tpkg
	return tpkg, nil
}
