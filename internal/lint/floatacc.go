// SL006: order-sensitive float accumulation. Float addition is not
// associative, so a fold whose visit order varies — a compound assignment
// inside a map range, or an accumulator captured across Pool.ForEach
// worker goroutines — can change the low bits between runs even when every
// input is identical. That is exactly the failure mode the bit-identical
// trace gates exist to catch, hours later and much more expensively.
//
// Two carve-outs keep the check precise: writing m[k] += x where k is the
// range key touches each slot exactly once regardless of order, and
// indexed writes inside a ForEach body follow the pool's index-disjoint
// discipline. Both are skipped.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var floatCompound = map[token.Token]string{
	token.ADD_ASSIGN: "+=",
	token.SUB_ASSIGN: "-=",
	token.MUL_ASSIGN: "*=",
	token.QUO_ASSIGN: "/=",
}

func checkFloatAccum(ctx *fileCtx) {
	ast.Inspect(ctx.file, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			if ctx.isMapRange(s) {
				ctx.flagMapRangeAccums(s)
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ForEach" {
				for _, arg := range s.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						ctx.flagCapturedAccums(lit)
					}
				}
			}
		}
		return true
	})
}

// flagMapRangeAccums reports float compound assignments inside a map-range
// body, excluding per-key slot updates (LHS indexed exactly by the range
// key variable).
func (ctx *fileCtx) flagMapRangeAccums(rng *ast.RangeStmt) {
	keyObj := ctx.identObj(rng.Key)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		op, compound := floatCompound[as.Tok]
		if !compound || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if id, ok := idx.Index.(*ast.Ident); ok {
				if obj := ctx.identObj(id); obj != nil && obj == keyObj {
					return true // m[k] op= x: one slot per key, order-free
				}
			}
		}
		if !isFloat(ctx.typeOf(lhs)) {
			return true
		}
		ctx.add(as.Pos(), IDFloatAccum,
			"float %s inside a map range folds in nondeterministic iteration order; accumulate into a keyed slot or sort the keys first", op)
		return true
	})
}

// flagCapturedAccums reports float compound assignments inside a ForEach
// worker body whose target is captured from the enclosing scope — a shared
// accumulator raced across workers. Indexed writes are the pool's
// sanctioned index-disjoint pattern and are skipped.
func (ctx *fileCtx) flagCapturedAccums(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		op, compound := floatCompound[as.Tok]
		if !compound || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true // indexed or field writes: index-disjoint discipline
		}
		obj := ctx.identObj(id)
		if obj == nil || !isFloat(obj.Type()) {
			return true
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the worker body: private state
		}
		ctx.add(as.Pos(), IDFloatAccum,
			"float %s into %q captured across ForEach workers; merge order is scheduling-dependent — reduce per-index and fold in index order", op, id.Name)
		return true
	})
}

// identObj resolves an identifier expression to its object, or nil.
func (ctx *fileCtx) identObj(e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok {
		return ctx.info.ObjectOf(id)
	}
	return nil
}
