// Package loader: parses and type-checks every analyzed package (and,
// transitively, every module-internal package it imports) into one shared
// token.FileSet, so the per-file checks see resolved types.
//
// Import resolution is two-headed: paths under Config.Module map to
// directories under Config.Root and are loaded recursively from source;
// everything else goes through go/importer's source importer (stdlib from
// GOROOT). An import that cannot be resolved is a type error like any
// other: go/types substitutes an empty package of that name and carries on,
// so qualifiers still resolve and the checks stay conservative.

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
	"sort"
	"strings"
)

// pkgInfo is one loaded module package.
type pkgInfo struct {
	rel      string // slash-relative directory under Root ("." = root pkg)
	tier     tier
	files    []*ast.File
	relFiles []string // parallel to files
	pkg      *types.Package
	info     *types.Info
}

// program holds the loader state shared by one Run.
type program struct {
	cfg  *Config
	fset *token.FileSet
	pkgs map[string]*pkgInfo // by rel dir

	loading map[string]bool
	std     types.Importer // go/importer source importer; memoizes itself
}

func newProgram(cfg *Config) *program {
	fset := token.NewFileSet()
	return &program{
		cfg:     cfg,
		fset:    fset,
		pkgs:    map[string]*pkgInfo{},
		loading: map[string]bool{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// loadRel parses and type-checks the module package in the slash-relative
// directory rel, memoized. Type errors do not abort the load: the checks
// are conservative under partial information, and the known-bad fixture
// corpus is linted on purpose.
func (p *program) loadRel(rel string) (*pkgInfo, error) {
	if pi, ok := p.pkgs[rel]; ok {
		return pi, nil
	}
	if p.loading[rel] {
		return nil, fmt.Errorf("surfer-lint: import cycle through %s", rel)
	}
	p.loading[rel] = true
	defer delete(p.loading, rel)

	dir := filepath.Join(p.cfg.Root, filepath.FromSlash(rel))
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	pi := &pkgInfo{rel: rel, tier: p.cfg.tierOf(rel)}
	for _, name := range names {
		path := filepath.Join(dir, name)
		file, err := parser.ParseFile(p.fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("surfer-lint: %w", err)
		}
		pi.files = append(pi.files, file)
		pi.relFiles = append(pi.relFiles, relSlash(p.cfg.Root, path))
	}
	pi.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: (*progImporter)(p),
		Error:    func(error) {}, // collect nothing, continue past errors
	}
	// Check returns the (possibly incomplete) package even on error; with
	// the Error hook set it keeps going, which is exactly what linting a
	// known-bad corpus needs.
	pi.pkg, _ = conf.Check(p.importPath(rel), p.fset, pi.files, pi.info)
	p.pkgs[rel] = pi
	return pi, nil
}

// importPath is the module import path of a relative directory.
func (p *program) importPath(rel string) string {
	if rel == "." || rel == "" {
		return p.cfg.Module
	}
	return p.cfg.Module + "/" + rel
}

// relOfImportPath inverts importPath; ok is false for paths outside the
// module.
func (p *program) relOfImportPath(path string) (string, bool) {
	if path == p.cfg.Module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, p.cfg.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// progImporter adapts program to types.Importer.
type progImporter program

func (im *progImporter) Import(path string) (*types.Package, error) {
	p := (*program)(im)
	if rel, ok := p.relOfImportPath(path); ok {
		pi, err := p.loadRel(rel)
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return p.std.Import(path)
}

// fileCtx is the per-file checking context handed to each check.
type fileCtx struct {
	fset       *token.FileSet
	file       *ast.File
	info       *types.Info
	relFile    string
	tier       tier
	sanctioned bool
	add        addFunc
}

// pkgPathOf resolves an identifier used as a package qualifier to its
// import path (aliases and shadowing handled by the type checker), or ""
// if it names anything else.
func (ctx *fileCtx) pkgPathOf(id *ast.Ident) string {
	if pn, ok := ctx.info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// typeOf returns the resolved type of an expression, or nil.
func (ctx *fileCtx) typeOf(e ast.Expr) types.Type {
	t := ctx.info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// walkGoDirs calls fn for every directory under base, skipping hidden,
// underscore and testdata subtrees.
func walkGoDirs(base string, fn func(path string)) error {
	if _, err := os.Stat(base); os.IsNotExist(err) {
		return nil // no such subtree: zero matches, Run reports the pattern
	}
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		fn(path)
		return nil
	})
}

// goSources lists the non-test .go files of one directory, sorted. Test
// files are exempt from the whole contract: they may time, randomize and
// spawn freely (the determinism suite itself races worker pools against
// each other).
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
