package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// addFunc appends a finding at a position.
type addFunc func(pos token.Pos, id, format string, args ...any)

// forbiddenTime are time-package calls that read or depend on the wall
// clock. Virtual time lives in the engine's event loop; wall time in a
// simulation package makes results depend on the host.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// forbiddenOS are environment reads: configuration must arrive through
// plumbed options, not ambient process state.
var forbiddenOS = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// allowedRand are the math/rand constructors: building a seeded *rand.Rand
// is exactly what the contract wants. Everything else at package level
// (Intn, Perm, Shuffle, Float64, ...) draws from the process-global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// classifySink reports whether a call expression is an entropy sink —
// wall clock, ambient environment, or the global rand source — resolving
// the package qualifier through the type checker (aliases and shadowed
// names handled exactly). The returned strings are the local qualifier as
// written, the selector, and the SL001 message template.
func classifySink(ctx *fileCtx, call *ast.CallExpr) (qual, name, format string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	pkg, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", "", false
	}
	switch ctx.pkgPathOf(pkg) {
	case "time":
		if forbiddenTime[sel.Sel.Name] {
			return pkg.Name, sel.Sel.Name,
				"call to %s.%s reads the wall clock; simulated time comes from the engine clock", true
		}
	case "os":
		if forbiddenOS[sel.Sel.Name] {
			return pkg.Name, sel.Sel.Name,
				"call to %s.%s reads ambient process environment; plumb configuration through options", true
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[sel.Sel.Name] {
			return pkg.Name, sel.Sel.Name,
				"call to %s.%s draws from the global rand source; use a seeded, plumbed *rand.Rand", true
		}
	}
	return "", "", "", false
}

// checkEntropy is SL001: direct calls to wall-clock, environment or
// global-randomness functions.
func checkEntropy(ctx *fileCtx) {
	ast.Inspect(ctx.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if qual, name, format, hit := classifySink(ctx, call); hit {
			ctx.add(call.Pos(), IDEntropy, format, qual, name)
		}
		return true
	})
}

// checkConcurrency is SL003: go statements and multi-case selects outside
// the sanctioned worker pool (internal/pool/pool.go). Goroutine
// scheduling order is nondeterministic; the contract allows concurrency
// only behind Pool.ForEach's index-disjoint discipline.
func checkConcurrency(ctx *fileCtx) {
	ast.Inspect(ctx.file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			ctx.add(s.Pos(), IDConcurrency,
				"go statement outside the sanctioned worker pool; route parallel work through pool.Pool.ForEach")
		case *ast.SelectStmt:
			if len(s.Body.List) > 1 {
				ctx.add(s.Pos(), IDConcurrency,
					"multi-case select resolves by runtime scheduling order; deterministic code must not race channels")
			}
		}
		return true
	})
}

// checkMapRangeEmission is SL002, the PR 1 nrMR.Map bug class: a range
// over a map whose body feeds ordered output — an emit callback, a trace
// Emit, a channel send, or an append to a result slice — inherits the
// runtime's randomized map iteration order. Appending keys and sorting
// afterwards (the sortedKeys idiom) is the sanctioned fix: an append whose
// target is passed to a sort call later in the same block is accepted.
//
// Map-ness is decided by the type checker alone, so struct fields,
// cross-package accessors and aliases are covered; an expression the
// checker could not type is not a map range.
func checkMapRangeEmission(ctx *fileCtx) {
	inspectStmtLists(ctx.file, func(stmts []ast.Stmt) {
		for i, st := range stmts {
			rng, ok := st.(*ast.RangeStmt)
			if !ok || !ctx.isMapRange(rng) {
				continue
			}
			direct, appends := findEmissions(rng.Body)
			for _, em := range direct {
				ctx.add(em.pos, IDMapOrder,
					"map iteration order is nondeterministic and this range body %s; emit in sorted key order",
					em.what)
			}
			for _, em := range appends {
				if sortedAfter(stmts[i+1:], em.target) {
					continue
				}
				ctx.add(em.pos, IDMapOrder,
					"map iteration order is nondeterministic and this range body appends to %q, which is never sorted afterwards",
					em.target)
			}
		}
	})
}

// isMapRange reports whether a range statement iterates a map.
func (ctx *fileCtx) isMapRange(rng *ast.RangeStmt) bool {
	t := ctx.typeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// inspectStmtLists visits every statement list under root: blocks, switch
// cases and select clauses.
func inspectStmtLists(root ast.Node, visit func([]ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			visit(s.List)
		case *ast.CaseClause:
			visit(s.Body)
		case *ast.CommClause:
			visit(s.Body)
		}
		return true
	})
}

type emission struct {
	pos    token.Pos
	what   string // direct emissions: what the body does
	target string // append emissions: the slice identifier
}

// findEmissions scans a range body for statements whose effect is ordered:
// calls to an emit callback or an Emit/Record method, channel sends, and
// appends to an identifier (returned separately so the caller can look for
// a sanctioning sort).
func findEmissions(body *ast.BlockStmt) (direct, appends []emission) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			direct = append(direct, emission{pos: s.Pos(), what: "sends on a channel"})
		case *ast.CallExpr:
			switch fun := s.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "emit" {
					direct = append(direct, emission{pos: s.Pos(), what: "calls emit"})
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Emit" || fun.Sel.Name == "Record" {
					direct = append(direct, emission{pos: s.Pos(), what: "calls " + fun.Sel.Name})
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "append" {
				appends = append(appends, emission{pos: s.Pos(), target: lhs.Name})
			}
		}
		return true
	})
	return direct, appends
}

// sortedAfter reports whether any statement in rest sorts target: a
// sort.* / slices.* call taking it, or any call to a function whose name
// mentions sorting (a sortByKey-style helper).
func sortedAfter(rest []ast.Stmt, target string) bool {
	found := false
	for _, st := range rest {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !mentionsIdent(call.Args, target) {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := fun.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
					found = true
				}
			case *ast.Ident:
				if strings.Contains(strings.ToLower(fun.Name), "sort") {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func mentionsIdent(exprs []ast.Expr, name string) bool {
	for _, e := range exprs {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				hit = true
			}
			return !hit
		})
		if hit {
			return true
		}
	}
	return false
}
