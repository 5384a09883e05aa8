package lint

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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The standard-library importer compiles packages from GOROOT source.
// Cgo-backed variants (net, os/user) cannot be type-checked that way, so
// the pure-Go fallbacks are selected once for the whole process.
var disableCgo sync.Once

// loader parses and type-checks packages of one module. Module-internal
// imports are resolved recursively from source; everything else goes to
// the stdlib source importer. Type errors are collected, not fatal:
// analyzers must degrade gracefully on partial information.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// newLoader locates the module containing dir and prepares importers.
func newLoader(dir string) (*loader, error) {
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLineRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modRoot: root,
		modPath: string(m[1]),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// LoadModule parses and type-checks every package of the module that
// contains dir, skipping testdata, hidden directories, and _test.go
// files. Packages are returned sorted by import path.
func LoadModule(dir string) ([]*Package, error) {
	l, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(l.modRoot, path)
		if err != nil {
			return err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(importPath, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true, nil
		}
	}
	return false, nil
}

// isSourceFile reports whether the entry is a buildable, non-test Go
// file. Test files are out of scope: the rules protect shipped
// simulation and reporting code, and tests legitimately compare exact
// floats and use wall-clock timeouts.
func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() &&
		strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// load parses and type-checks one directory as importPath, loading
// module-internal dependencies first.
func (l *loader) load(importPath, dir string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	p := &Package{
		Path: importPath,
		Rel:  l.relPath(importPath),
		Dir:  dir,
		Fset: l.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}

	// Pre-load module-internal imports so the importer below can serve
	// them from cache; a failure there is recorded, not fatal.
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !l.isModulePath(path) || path == importPath {
				continue
			}
			depDir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
			if path == l.modPath {
				depDir = l.modRoot
			}
			if _, err := l.load(path, depDir); err != nil {
				p.TypeErrors = append(p.TypeErrors, err)
			}
		}
	}

	p.Importer = &chainImporter{l: l}
	conf := types.Config{
		Importer: p.Importer,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check returns a usable (partial) package even on errors, which the
	// Error callback has already collected.
	p.Pkg, _ = conf.Check(importPath, l.fset, files, p.Info)
	p.Files = files
	l.pkgs[importPath] = p
	return p, nil
}

// relPath strips the module prefix from an import path.
func (l *loader) relPath(importPath string) string {
	if importPath == l.modPath {
		return ""
	}
	return strings.TrimPrefix(importPath, l.modPath+"/")
}

func (l *loader) isModulePath(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// chainImporter serves module-internal packages from the loader's cache
// and defers everything else to the stdlib source importer.
type chainImporter struct{ l *loader }

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, _ types.ImportMode) (pkg *types.Package, err error) {
	if c.l.isModulePath(path) {
		p, ok := c.l.pkgs[path]
		if !ok || p.Pkg == nil {
			return nil, fmt.Errorf("lint: module package %s not loaded", path)
		}
		return p.Pkg, nil
	}
	// The source importer can panic on exotic GOROOT code; degrade to a
	// type error so analysis continues with partial information.
	defer func() {
		if r := recover(); r != nil {
			pkg, err = nil, fmt.Errorf("lint: importing %s panicked: %v", path, r)
		}
	}()
	return c.l.std.ImportFrom(path, dir, 0)
}
