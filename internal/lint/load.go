package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the module-qualified import path ("repro/internal/sim").
	ImportPath string
	// Rel is the module-relative directory ("" for the root package,
	// "internal/sim" otherwise), always with forward slashes.
	Rel string

	Files     []*ast.File
	FileNames []string

	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded and type-checked module: the unit the passes
// analyze. Packages are sorted by import path so every traversal of the
// module is deterministic.
type Module struct {
	Fset *token.FileSet
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path     string
	Packages []*Package

	byPath map[string]*Package
}

// loader builds a Module: it discovers package directories, parses them,
// and type-checks them on demand. In-module imports resolve to the loader's
// own packages; everything else (the standard library) is type-checked from
// $GOROOT/src by the stdlib source importer, keeping the whole pipeline
// free of external dependencies and offline.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.ImporterFrom

	dirs     map[string]string // import path -> absolute dir
	packages map[string]*Package
	checking map[string]bool // import cycle detection
	errs     []string
}

// Load parses and type-checks the module rooted at dir (the directory
// containing go.mod, or any directory below it).
func Load(dir string) (*Module, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:     fset,
		root:     root,
		modPath:  modPath,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:     make(map[string]string),
		packages: make(map[string]*Package),
		checking: make(map[string]bool),
	}
	if err := l.discover(); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("lint: type errors in module %s:\n  %s",
			modPath, strings.Join(l.errs, "\n  "))
	}

	mod := &Module{Fset: fset, Root: root, Path: modPath, byPath: l.packages}
	for _, p := range paths {
		mod.Packages = append(mod.Packages, l.packages[p])
	}
	return mod, nil
}

// findModuleRoot walks up from dir to the nearest directory with a go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// discover maps every package directory in the module to its import path.
// testdata, vendor, hidden directories, and nested modules are skipped,
// mirroring the go tool's package walk.
func (l *loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		imp := l.modPath
		if rel != "." {
			imp = l.modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether name is a non-test Go source file the
// analyzer should consider.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages are
// loaded (and cached) by the loader itself; the standard library is
// delegated to the source importer.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one module-local package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.packages[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("lint: no package %s in module %s", path, l.modPath)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
		names = append(names, full)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if len(l.errs) < 20 {
				l.errs = append(l.errs, err.Error())
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", path, strings.Join(l.errs, "\n  "))
	}

	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	p := &Package{
		ImportPath: path,
		Rel:        filepath.ToSlash(rel),
		Files:      files,
		FileNames:  names,
		Types:      tpkg,
		Info:       info,
	}
	l.packages[path] = p
	return p, nil
}
