// Package atomiccheck enforces the engine's mixed-access rule: a struct
// field that is accessed through sync/atomic anywhere in the package — by
// passing its address (or the address of one of its elements) to a
// sync/atomic function — must not also be read or written plainly, except
// where a written
// //dbvet:ignore justification states why the plain access is safe
// (typically: performed under the writer lock that excludes every
// lock-free reader, or during single-threaded construction).
//
// Flagged plain accesses are the ones that can tear or race against the
// atomic side:
//
//   - assignments to the field (including swapping in a new slice
//     header, which races a concurrent atomic element reader),
//   - element reads/writes (x.f[i]) outside an atomic call,
//   - passing the field (or its address) to any non-atomic function,
//     which hides plain element access behind a call boundary.
//
// Nil checks (x.f == nil), len/cap, and capturing the field in a
// composite literal are not flagged: they touch only the slice header
// in ways the engine performs under the relation lock by construction.
package atomiccheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"datablocks/internal/analysis"
)

// Analyzer is the atomiccheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomiccheck",
	Doc:  "check that fields accessed via sync/atomic are never read or written plainly",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo

	// Pass 1: collect atomically-accessed fields, and remember every
	// selector expression that participates in an atomic access so pass
	// 2 can skip them.
	atomicFields := map[*types.Var]token.Pos{} // field -> first atomic use
	atomicUse := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !analysis.IsPackageFunc(info, call, "sync/atomic") {
				return true
			}
			// The address-taken arguments (&x.f, &x.f[i]) perform the atomic
			// access; plain arguments (values) are not atomic uses.
			for _, arg := range call.Args {
				if !isAddrOf(arg) {
					continue
				}
				if sel, field := fieldOfAtomicArg(info, arg); field != nil {
					if _, seen := atomicFields[field]; !seen {
						atomicFields[field] = sel.Pos()
					}
					atomicUse[sel] = true
				}
			}
			return false
		})
	}
	if len(atomicFields) == 0 {
		return nil, nil
	}

	// Pass 2: find plain accesses of those fields.
	for _, f := range pass.Files {
		var visit func(n ast.Node, parent ast.Node) // manual walk to know each selector's context
		_ = visit
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, field := selField(info, lhs); field != nil {
						if _, hot := atomicFields[field]; hot && !atomicUse[sel] {
							pass.Reportf(sel.Pos(),
								"plain write to %s, which is accessed atomically elsewhere (e.g. %s): use sync/atomic or justify with //dbvet:ignore",
								analysis.ExprString(sel), pass.Fset.Position(atomicFields[field]))
						}
					}
					// Element write: x.f[i] = v
					if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if sel, field := selField(info, idx.X); field != nil {
							if _, hot := atomicFields[field]; hot {
								pass.Reportf(sel.Pos(),
									"plain element write to %s, which is accessed atomically elsewhere (e.g. %s)",
									analysis.ExprString(sel), pass.Fset.Position(atomicFields[field]))
							}
						}
					}
				}
			case *ast.IndexExpr:
				// Element read (writes were handled above; revisiting them
				// here is prevented by the assign case returning true but
				// index-LHS selectors matching twice — guard with a marker).
				if sel, field := selField(info, n.X); field != nil {
					if _, hot := atomicFields[field]; hot && !atomicUse[sel] && !indexIsAssignTarget(f, n) {
						pass.Reportf(sel.Pos(),
							"plain element read of %s, which is accessed atomically elsewhere (e.g. %s)",
							analysis.ExprString(sel), pass.Fset.Position(atomicFields[field]))
					}
				}
			case *ast.RangeStmt:
				if sel, field := selField(info, n.X); field != nil {
					if _, hot := atomicFields[field]; hot {
						pass.Reportf(sel.Pos(),
							"plain range over %s, which is accessed atomically elsewhere (e.g. %s)",
							analysis.ExprString(sel), pass.Fset.Position(atomicFields[field]))
					}
				}
			case *ast.CallExpr:
				if analysis.IsPackageFunc(info, n, "sync/atomic") {
					return false
				}
				if skipHeaderOnlyCall(info, n) {
					return false
				}
				for _, arg := range n.Args {
					target := ast.Unparen(arg)
					if u, ok := target.(*ast.UnaryExpr); ok && u.Op == token.AND {
						target = ast.Unparen(u.X)
					}
					if sel, field := selField(info, target); field != nil {
						if _, hot := atomicFields[field]; hot && !atomicUse[sel] {
							pass.Reportf(sel.Pos(),
								"%s is passed to a non-atomic call but is accessed atomically elsewhere (e.g. %s): the callee's plain access races the atomic side",
								analysis.ExprString(sel), pass.Fset.Position(atomicFields[field]))
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// skipHeaderOnlyCall exempts built-ins that touch only the slice header
// or type identity: len, cap, and conversions.
func skipHeaderOnlyCall(info *types.Info, callExpr *ast.CallExpr) bool {
	id, ok := ast.Unparen(callExpr.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if obj, isBuiltin := info.Uses[id]; isBuiltin {
		if b, ok := obj.(*types.Builtin); ok {
			return b.Name() == "len" || b.Name() == "cap"
		}
		if _, isType := obj.(*types.TypeName); isType {
			return true
		}
	}
	return false
}

// selField resolves an expression to (selector, struct field) when it is
// a plain field selection like x.f; nil otherwise.
func selField(info *types.Info, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return nil, nil
	}
	if v, ok := s.Obj().(*types.Var); ok {
		return sel, v
	}
	return nil, nil
}

// isAddrOf reports whether the argument takes an address (&expr).
func isAddrOf(arg ast.Expr) bool {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	return ok && u.Op == token.AND
}

// fieldOfAtomicArg resolves an atomic call argument to the struct field
// it addresses: &x.f or &x.f[i].
func fieldOfAtomicArg(info *types.Info, arg ast.Expr) (*ast.SelectorExpr, *types.Var) {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(idx.X)
	}
	return selField(info, e)
}

// indexIsAssignTarget reports whether idx is the direct LHS of an
// assignment (those are reported as element writes, not reads).
func indexIsAssignTarget(f *ast.File, idx *ast.IndexExpr) bool {
	target := false
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if ast.Unparen(lhs) == idx {
					target = true
				}
			}
		}
		return !target
	})
	return target
}
