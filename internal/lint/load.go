package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Config describes one module-shaped source tree to load. Dir is the root
// directory; every package found beneath it (excluding testdata, hidden
// directories, and _test.go files) is parsed and type-checked. ModulePath
// is the import-path prefix those packages live under, so intra-tree
// imports resolve to each other rather than to installed packages.
type Config struct {
	Dir        string
	ModulePath string
	// GoListDir is the directory `go list` runs in when resolving
	// external (stdlib) imports to compiled export data. It defaults to
	// Dir; tests loading fixture trees that are not themselves modules
	// point it at the enclosing module instead.
	GoListDir string
}

// Package is one parsed and type-checked package of the loaded tree.
type Package struct {
	Path  string // import path ("alex/internal/fed")
	Name  string // package name ("fed")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded tree: a shared FileSet and the packages in
// dependency order (imports before importers).
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Load parses and type-checks every package under cfg.Dir. It is the
// from-scratch analogue of a build-system package loader: source files are
// parsed with go/parser, intra-tree imports are type-checked in dependency
// order, and external imports are resolved through compiled export data
// located with a single `go list -deps -export` invocation — stdlib tools
// only, no golang.org/x/tools.
func Load(cfg Config) (*Program, error) {
	if cfg.GoListDir == "" {
		cfg.GoListDir = cfg.Dir
	}
	fset := token.NewFileSet()
	parsed, err := parseTree(fset, cfg)
	if err != nil {
		return nil, err
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("lint: no Go packages under %s", cfg.Dir)
	}
	order, err := sortByImports(parsed, cfg.ModulePath)
	if err != nil {
		return nil, err
	}
	external := externalImports(parsed, cfg.ModulePath)
	exports, err := listExportData(cfg.GoListDir, external)
	if err != nil {
		return nil, err
	}
	imp := &treeImporter{
		local: make(map[string]*types.Package),
		gc:    importer.ForCompiler(fset, "gc", exportLookup(exports)),
	}
	prog := &Program{Fset: fset}
	for _, pkg := range order {
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.local[pkg.Path] = tpkg
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// parseTree walks cfg.Dir and parses one Package per directory that holds
// non-test Go files. Directories named testdata, vendored trees, and
// dot-directories are skipped, mirroring the go tool's walking rules.
func parseTree(fset *token.FileSet, cfg Config) (map[string]*Package, error) {
	pkgs := make(map[string]*Package)
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		imp := cfg.ModulePath
		if rel != "." {
			imp = cfg.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg := pkgs[imp]
		if pkg == nil {
			pkg = &Package{Path: imp, Name: file.Name.Name, Dir: dir}
			pkgs[imp] = pkg
		}
		if pkg.Name != file.Name.Name {
			return fmt.Errorf("lint: %s: multiple packages in one directory (%s and %s)", dir, pkg.Name, file.Name.Name)
		}
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic file order within each package (WalkDir is sorted,
	// but be explicit: diagnostics and type-checking order depend on it).
	for _, pkg := range pkgs {
		sort.Slice(pkg.Files, func(i, j int) bool {
			return fset.File(pkg.Files[i].Pos()).Name() < fset.File(pkg.Files[j].Pos()).Name()
		})
	}
	return pkgs, nil
}

// fileImports returns the import paths of a parsed file.
func fileImports(f *ast.File) []string {
	out := make([]string, 0, len(f.Imports))
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		out = append(out, path)
	}
	return out
}

// isLocal reports whether path names a package inside the loaded tree.
func isLocal(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// sortByImports orders packages so every intra-tree import precedes its
// importer (topological order), erroring on import cycles.
func sortByImports(pkgs map[string]*Package, module string) ([]*Package, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		white = iota // unvisited
		grey         // on the current DFS path
		black        // done
	)
	state := make(map[string]int, len(pkgs))
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = grey
		pkg := pkgs[path]
		var deps []string
		for _, f := range pkg.Files {
			for _, imp := range fileImports(f) {
				if isLocal(imp, module) && pkgs[imp] != nil {
					deps = append(deps, imp)
				}
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// externalImports collects every import path used by the tree that does
// not resolve inside it (in practice: the stdlib), sorted.
func externalImports(pkgs map[string]*Package, module string) []string {
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, imp := range fileImports(f) {
				if !isLocal(imp, module) {
					seen[imp] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Export     string
}

// listExportData resolves import paths to compiled export-data files by
// invoking `go list -deps -export -json` once. The go command compiles (or
// finds cached) export data for each listed package and its transitive
// dependencies, which is exactly what the type-checker needs to resolve
// external imports without type-checking their sources.
func listExportData(dir string, paths []string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list -export: %w\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// exportLookup adapts the export-data map to the lookup function the gc
// importer expects.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// treeImporter resolves intra-tree imports to already-checked packages and
// everything else through compiled export data.
type treeImporter struct {
	local map[string]*types.Package
	gc    types.Importer
}

func (i *treeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.local[path]; ok {
		return pkg, nil
	}
	return i.gc.Import(path)
}
