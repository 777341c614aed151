// Package errcheckdb enforces error handling on the engine APIs whose
// errors are load-bearing: a discarded error from these functions is a
// silently-corrupted scan, a leaked pin, or a cold block treated as
// resident. Unlike a general errcheck, the list is curated (Funcs) so
// the check stays loud on the calls that matter and silent on the rest.
//
// A call is flagged when its final error result is dropped:
//
//   - the call stands alone as a statement,
//   - the error position is assigned to the blank identifier, or
//   - the call is deferred without a wrapper that inspects the error.
package errcheckdb

import (
	"go/ast"

	"datablocks/internal/analysis"
)

// Funcs names the engine APIs whose errors must be consumed. Names are
// matched against the callee's object name, and only when the callee's
// final result is the error type — so a same-named method elsewhere with
// no error return never matches.
var Funcs = map[string]bool{
	// storage: view pinning and cold-chunk restore
	"Acquire":        true,
	"AcquireReload":  true,
	"RestoreEvicted": true,
	// blockstore: block writes, reads and garbage collection
	"Put":           true,
	"ReadDirectory": true,
	"LoadAttrs":     true,
	"Load":          true,
	"Retain":        true,
	// catalog / manifest persistence
	"WriteCatalog":  true,
	"LoadCatalog":   true,
	"WriteManifest": true,
	"LoadManifest":  true,
	// walfs: durable file writes
	"WriteFile": true,
	"Sync":      true,
}

// Analyzer is the errcheckdb pass.
var Analyzer = &analysis.Analyzer{
	Name: "errcheckdb",
	Doc:  "check that errors from pinning, restore and store I/O APIs are never discarded",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if name, bad := checked(pass, call); bad {
						pass.Reportf(call.Pos(), "error result of %s is discarded: a dropped error here hides a failed pin or a bad block read", name)
					}
				}
			case *ast.DeferStmt:
				if name, bad := checked(pass, n.Call); bad {
					pass.Reportf(n.Call.Pos(), "deferred %s discards its error: wrap it in a closure that handles the error", name)
				}
				return false
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.GoStmt:
				if name, bad := checked(pass, n.Call); bad {
					pass.Reportf(n.Call.Pos(), "goroutine call to %s discards its error", name)
				}
				return false
			}
			return true
		})
	}
	return nil, nil
}

// checked reports whether the call targets a configured API returning an
// error that the surrounding statement drops.
func checked(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	obj := analysis.CalleeObject(pass.TypesInfo, call)
	if obj == nil || !Funcs[obj.Name()] {
		return "", false
	}
	if !analysis.LastResultIsError(pass.TypesInfo, call) {
		return "", false
	}
	return obj.Name(), true
}

// checkAssign flags `_ = x.Acquire()` and multi-assigns whose error
// position is blank, e.g. `blk, unpin, _ := r.pinBlock(i)`.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, bad := checked(pass, call)
	if !bad {
		return
	}
	// The error is the final result, so it lands in the final LHS slot.
	last := as.Lhs[len(as.Lhs)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(call.Pos(), "error result of %s is assigned to the blank identifier: handle it or justify with //dbvet:ignore", name)
	}
}
