// Package poolsafety enforces the read-only-scoring/serial-apply rule
// on pool fan-outs: a closure passed to (*pool.Pool).Run (or to
// any //cluseq:fanout-annotated function) runs concurrently for every
// task index, so it may only write state that is partitioned by its own
// index — element writes whose index derives from the closure's
// parameters. Writing a captured variable directly, or an element at an
// index independent of the task's, is a data race or an order-dependent
// result.
package poolsafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"cluseq/tools/cluseqvet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolsafety",
	Doc:  "check closures passed to pool.Run/fanout functions for non-index-partitioned writes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := fanoutCall(pass, call)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkClosure(pass, name, lit)
				}
			}
			return true
		})
	}
	return nil
}

// fanoutCall reports whether call dispatches closures across task
// indices: a method on *pool.Pool named Run, or any function
// annotated //cluseq:fanout.
func fanoutCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	f := analysis.Callee(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	if f.Name() == "Run" {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok &&
				named.Obj().Name() == "Pool" &&
				named.Obj().Pkg() != nil &&
				hasSuffix(named.Obj().Pkg().Path(), "internal/pool") {
				return "pool." + f.Name(), true
			}
		}
	}
	pkgPath, key := analysis.CalleeKey(f)
	if pkgPath == pass.Pkg.Path() && pass.Dirs.Annotated(key, "fanout") {
		return key, true
	}
	if pass.Index.Annotated(pkgPath, key, "fanout") {
		return key, true
	}
	return "", false
}

func hasSuffix(s, suffix string) bool {
	return s == suffix || (len(s) > len(suffix) && s[len(s)-len(suffix)-1] == '/' && s[len(s)-len(suffix):] == suffix)
}

// checkClosure walks one fan-out closure body looking for writes that
// are not partitioned by the closure's parameters.
func checkClosure(pass *analysis.Pass, fanout string, lit *ast.FuncLit) {
	tainted := taintedObjects(pass, lit)
	inside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	checkTarget := func(e ast.Expr, pos token.Pos) {
		for {
			switch t := ast.Unparen(e).(type) {
			case *ast.Ident:
				obj := analysis.ObjOf(pass.Info, t)
				if obj == nil || inside(obj) {
					return // local to the closure: per-task state
				}
				pass.Reportf(pos, "closure passed to %s writes captured variable %q; partition by the task index or apply serially", fanout, t.Name)
				return
			case *ast.IndexExpr:
				// A captured map races even at distinct keys; check it
				// before granting the index-partition exemption.
				if analysis.IsMap(pass.Info, t.X) {
					if base := rootIdent(t.X); base != nil {
						if obj := analysis.ObjOf(pass.Info, base); obj != nil && !inside(obj) {
							pass.Reportf(pos, "closure passed to %s writes a captured map; maps cannot be index-partitioned", fanout)
						}
					}
					return
				}
				if mentionsAny(pass.Info, t.Index, tainted) {
					return // element write partitioned by the task index
				}
				// A fixed or captured index: writing base[e] races with
				// the other tasks unless base itself is closure-local.
				e2 := t.X
				if base := rootIdent(e2); base != nil {
					obj := analysis.ObjOf(pass.Info, base)
					if obj == nil || inside(obj) {
						return
					}
					pass.Reportf(pos, "closure passed to %s writes %q at an index that does not depend on the task index", fanout, base.Name)
					return
				}
				return
			case *ast.SelectorExpr:
				e = t.X
			case *ast.StarExpr:
				e = t.X
			default:
				return
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkTarget(lhs, lhs.Pos())
			}
		case *ast.IncDecStmt:
			checkTarget(n.X, n.X.Pos())
		}
		return true
	})
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// taintedObjects computes the closure parameters plus every local whose
// initialization mentions an already-tainted object (one level of
// dataflow per pass, iterated to fixpoint). An index expression must
// mention a tainted object to count as partitioned by the task index.
func taintedObjects(pass *analysis.Pass, lit *ast.FuncLit) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := analysis.ObjOf(pass.Info, name); obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := analysis.ObjOf(pass.Info, id)
				if obj == nil || tainted[obj] {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs != nil && mentionsAny(pass.Info, rhs, tainted) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

func mentionsAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[analysis.ObjOf(info, id)] {
			found = true
		}
		return !found
	})
	return found
}
