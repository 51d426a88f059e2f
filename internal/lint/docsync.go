package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// docWord is one vocabulary word a consumer of the system's output parses,
// found at pos: desc names it in the finding, value must be documented.
type docWord struct {
	pos   token.Pos
	desc  string
	value string
}

// checkDocSync is SL004: the three vocabularies downstream tools parse must
// appear, backticked, in docs/METRICS.md, so the reference can never
// silently lag the output — every trace event kind's display string
// (cfg.TraceDir), every analyze blame category (cfg.AnalyzeDir), and the
// surfer-bench/v1 schema name, metric keys and info keys (cfg.BenchDir).
// The packages are parsed directly (not via the type-checking loader), so
// the pass holds even when the CLI pattern excludes them; each parsed
// file's pragmas join the index so its findings can be suppressed.
func checkDocSync(cfg Config, fset *token.FileSet, pragmas map[string][]pragma) ([]Finding, error) {
	doc, err := os.ReadFile(filepath.Join(cfg.Root, filepath.FromSlash(cfg.MetricsDoc)))
	if err != nil {
		return nil, fmt.Errorf("surfer-lint: metrics doc: %w", err)
	}
	content := string(doc)

	var findings []Finding
	for _, src := range []struct {
		rel   string
		words func(*ast.File) []docWord
	}{
		{cfg.TraceDir, traceKindWords},
		{cfg.AnalyzeDir, blameCategoryWords},
		{cfg.BenchDir, benchReportWords},
	} {
		if src.rel == "" {
			continue
		}
		dir := filepath.Join(cfg.Root, filepath.FromSlash(src.rel))
		names, err := goSources(dir)
		if err != nil {
			return nil, fmt.Errorf("surfer-lint: %s: %w", src.rel, err)
		}
		for _, name := range names {
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("surfer-lint: %w", err)
			}
			relFile := relSlash(cfg.Root, path)
			pragmas[relFile] = filePragmas(fset, file)
			for _, w := range src.words(file) {
				if strings.Contains(content, "`"+w.value+"`") {
					continue
				}
				p := fset.Position(w.pos)
				findings = append(findings, Finding{
					ID:      IDDocSync,
					File:    relFile,
					Line:    p.Line,
					Col:     p.Column,
					Message: fmt.Sprintf("%s is not documented in %s", w.desc, cfg.MetricsDoc),
				})
			}
		}
	}
	return findings, nil
}

// stringConsts calls fn for every constant of the file declared with a
// string-literal value.
func stringConsts(file *ast.File, fn func(name *ast.Ident, lit *ast.BasicLit, value string)) {
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, n := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				if lit, v, ok := stringLit(vs.Values[i]); ok {
					fn(n, lit, v)
				}
			}
		}
	}
}

// stringLit unquotes e if it is a string literal.
func stringLit(e ast.Expr) (*ast.BasicLit, string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil, "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return lit, v, err == nil
}

// traceKindWords is the trace package's vocabulary: the display string of
// every EventKind constant (its constant name when String has no case).
func traceKindWords(file *ast.File) []docWord {
	display := kindStrings(file)
	var words []docWord
	for _, k := range eventKindConsts(file) {
		want := display[k.Name]
		if want == "" {
			want = k.Name
		}
		words = append(words, docWord{k.Pos(), fmt.Sprintf("trace event kind %s (%q)", k.Name, want), want})
	}
	return words
}

// blameCategoryWords is the analyze package's category vocabulary: string
// constants whose name starts with "Cat".
func blameCategoryWords(file *ast.File) []docWord {
	var words []docWord
	stringConsts(file, func(n *ast.Ident, _ *ast.BasicLit, v string) {
		if strings.HasPrefix(n.Name, "Cat") {
			words = append(words, docWord{n.Pos(), fmt.Sprintf("blame category %s (%q)", n.Name, v), v})
		}
	})
	return words
}

// benchReportWords is the bench package's report vocabulary: the
// ReportSchema constant, every string key of a map[string]float64
// composite literal, and every string-literal index on the left of an
// assignment (metrics["x"] = v). Computed keys are out of scope — they
// are not a fixed vocabulary the doc could enumerate.
func benchReportWords(file *ast.File) []docWord {
	var words []docWord
	add := func(e ast.Expr, what string) {
		if lit, v, ok := stringLit(e); ok && v != "" {
			words = append(words, docWord{lit.Pos(), fmt.Sprintf("bench report %s %q", what, v), v})
		}
	}
	stringConsts(file, func(n *ast.Ident, lit *ast.BasicLit, _ string) {
		if n.Name == "ReportSchema" {
			add(lit, "schema")
		}
	})
	ast.Inspect(file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CompositeLit:
			mt, ok := s.Type.(*ast.MapType)
			if !ok || !typeNamed(mt.Key, "string") || !typeNamed(mt.Value, "float64") {
				return true
			}
			for _, elt := range s.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					add(kv.Key, "metric key")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					add(idx.Index, "info key")
				}
			}
		}
		return true
	})
	return words
}

// eventKindConsts returns the constants of every const block whose first
// typed spec is EventKind — iota continuation lines inherit membership.
func eventKindConsts(file *ast.File) []*ast.Ident {
	var kinds []*ast.Ident
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		inBlock := false
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if vs.Type != nil {
				id, ok := vs.Type.(*ast.Ident)
				inBlock = ok && id.Name == "EventKind"
			}
			if !inBlock {
				continue
			}
			for _, n := range vs.Names {
				if n.Name != "_" {
					kinds = append(kinds, n)
				}
			}
		}
	}
	return kinds
}

// kindStrings extracts the constant→display-string mapping from the
// EventKind.String method's switch (case KindX: return "x").
func kindStrings(file *ast.File) map[string]string {
	display := map[string]string{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "String" || fn.Recv == nil || fn.Body == nil {
			continue
		}
		if recv := fn.Recv.List[0].Type; !typeNamed(recv, "EventKind") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok || len(cc.Body) != 1 {
				return true
			}
			ret, ok := cc.Body[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return true
			}
			_, s, ok := stringLit(ret.Results[0])
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if id, ok := e.(*ast.Ident); ok {
					display[id.Name] = s
				}
			}
			return true
		})
	}
	return display
}

func typeNamed(expr ast.Expr, name string) bool {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name == name
	case *ast.StarExpr:
		return typeNamed(t.X, name)
	}
	return false
}
