// Package pincheck enforces the blockstore pin protocol: every
// successful pin must be released on every path out of the function
// that took it (lostcancel-style). Two pin shapes are recognized:
//
//   - view pins: a call to a method named Acquire whose last result is
//     an error, on a receiver that also has a Release() method
//     (storage.ChunkView.Acquire(cols)). The matching release is <recv>.Release(),
//     called directly or deferred.
//   - handle pins: a call to a function in PinFuncs (storage's
//     (*Relation).pinBlock) whose results include a func() unpin
//     closure and a trailing error. The closure must be invoked or
//     deferred; discarding it with _ loses the pin outright.
//
// A failed pin holds nothing: returns inside the `if err != nil` block
// guarding the pin call are exempt. The analysis is block-scoped and
// lexical like the rest of the suite: a pin taken inside a loop body
// must be released by the end of that body (or deferred), otherwise the
// next iteration leaks it.
package pincheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"datablocks/internal/analysis"
)

// PinFuncs names functions whose returned func() closure releases a pin
// taken by the call.
var PinFuncs = map[string]bool{
	"pinBlock": true,
}

// Analyzer is the pincheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "pincheck",
	Doc:  "check that every successful Acquire/pinBlock pin is paired with its release on all paths",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					newWalker(pass).walkFunc(fn.Body)
				}
				return false // walkFunc handles nested literals
			case *ast.FuncLit:
				newWalker(pass).walkFunc(fn.Body)
				return false
			}
			return true
		})
	}
	return nil, nil
}

// A pin is one live acquisition on the current path.
type pin struct {
	pos token.Pos
	// token identifies the release: "recv.Release" for view pins
	// (canonical receiver text), or the unpin variable name for handle
	// pins.
	token string
	// errVar is the error variable assigned alongside the pin; returns
	// inside its != nil guard hold no pin.
	errVar string
	// deferred is set once a defer releasing this pin has been seen.
	deferred bool
	// loopDepth is the loop nesting level the pin was taken at; leaving
	// an iteration of that loop (continue, or falling off the body) with
	// the pin live is a leak.
	loopDepth int
}

type walker struct {
	pass      *analysis.Pass
	loopDepth int
}

func newWalker(pass *analysis.Pass) *walker { return &walker{pass: pass} }

// state is the live-pin set, keyed by release token.
type state map[string]*pin

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

func (w *walker) walkFunc(body *ast.BlockStmt) {
	st := state{}
	w.walkBlock(body, st)
	// Pins still live at the end of the function body (no return, no
	// release) leak when the function falls off the end.
	for _, p := range st {
		if !p.deferred {
			w.pass.Reportf(p.pos, "pin taken here is never released on the fall-through path: pair it with %s or defer the release", releaseHint(p))
		}
	}
}

func releaseHint(p *pin) string { return p.token }

func (w *walker) walkBlock(b *ast.BlockStmt, st state) {
	for _, s := range b.List {
		w.walkStmt(s, st)
	}
}

func (w *walker) walkStmt(s ast.Stmt, st state) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBlock(s, st)
	case *ast.AssignStmt:
		w.scanNested(s, st)
		// Storing a live unpin closure (v.release = unpin) transfers
		// ownership of the pin to the new holder; tracking stops here.
		for _, rhs := range s.Rhs {
			w.handleEscape(rhs, st)
		}
		w.handleAssign(s, st)
	case *ast.ExprStmt:
		w.scanNested(s, st)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.handleRelease(call, st, false)
		}
	case *ast.DeferStmt:
		w.scanNested(s, st)
		w.handleRelease(s.Call, st, true)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanNested(s.Cond, st)
		bodySt := st.clone()
		// `if err != nil { ... }` where err belongs to a just-taken pin:
		// inside that branch the pin was never taken.
		if name, ok := errNilCheck(s.Cond); ok {
			for tok, p := range bodySt {
				if p.errVar == name && p.errVar != "" {
					delete(bodySt, tok)
				}
			}
		}
		w.walkBlock(s.Body, bodySt)
		if s.Else != nil {
			w.walkStmt(s.Else, st.clone())
		}
		// Optimistic merge: releases performed in a non-terminating
		// branch are honored on the continuation, so a conditional
		// release is never double-reported; missed releases surface at
		// the next return instead.
		if !terminates(s.Body) {
			for tok := range st {
				if _, live := bodySt[tok]; !live {
					delete(st, tok)
				}
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.loopDepth++
		bodySt := st.clone()
		w.walkBlock(s.Body, bodySt)
		w.checkLoopExit(bodySt, s.Body.Rbrace)
		w.loopDepth--
	case *ast.RangeStmt:
		w.scanNested(s.X, st)
		w.loopDepth++
		bodySt := st.clone()
		w.walkBlock(s.Body, bodySt)
		w.checkLoopExit(bodySt, s.Body.Rbrace)
		w.loopDepth--
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkBranches(s, st)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			w.checkLoopExit(st, s.Pos())
		}
	case *ast.ReturnStmt:
		w.scanNested(s, st)
		// Returning the unpin closure (or the pinned view itself) hands
		// the pin to the caller, who becomes responsible for releasing.
		for _, res := range s.Results {
			w.handleEscape(res, st)
		}
		for _, p := range st {
			if !p.deferred {
				w.pass.Reportf(s.Pos(), "returning with the pin taken at %s still held: release it before this return or defer the release",
					w.pass.Fset.Position(p.pos))
			}
		}
	default:
		w.scanNested(s, st)
	}
}

// walkBranches handles switch/select: each clause sees a clone.
func (w *walker) walkBranches(s ast.Stmt, st state) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanNested(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	for _, cc := range body.List {
		sub := st.clone()
		switch cl := cc.(type) {
		case *ast.CaseClause:
			for _, stmt := range cl.Body {
				w.walkStmt(stmt, sub)
			}
		case *ast.CommClause:
			if cl.Comm != nil {
				w.walkStmt(cl.Comm, sub)
			}
			for _, stmt := range cl.Body {
				w.walkStmt(stmt, sub)
			}
		}
	}
}

// checkLoopExit reports pins taken at the current loop depth that are
// still live when an iteration ends.
func (w *walker) checkLoopExit(st state, pos token.Pos) {
	for tok, p := range st {
		if p.loopDepth == w.loopDepth && !p.deferred {
			w.pass.Reportf(p.pos, "pin taken inside this loop iteration is not released before the iteration ends: the next iteration leaks it (release %s or defer within the body)", p.token)
			delete(st, tok) // one report per pin
		}
	}
}

// scanNested analyzes function literals nested in the statement as
// independent functions.
func (w *walker) scanNested(n ast.Node, st state) {
	ast.Inspect(n, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			newWalker(w.pass).walkFunc(fl.Body)
			return false
		}
		return true
	})
}

// handleEscape drops pins whose handle escapes through e: the unpin
// closure used as a value (not called), or the pinned receiver itself.
// Whoever receives the value owns the release from here on.
func (w *walker) handleEscape(e ast.Expr, st state) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// The Fun position is a call, not an escape; arguments are.
			for _, arg := range n.Args {
				w.handleEscape(arg, st)
			}
			return false
		case *ast.Ident:
			if p, live := st[n.Name]; live && p.token == n.Name+"()" {
				delete(st, n.Name)
			}
			delete(st, n.Name+".Release")
		case *ast.SelectorExpr:
			if text := analysis.ExprString(n); text != "" {
				if _, live := st[text+".Release"]; live {
					delete(st, text+".Release")
				}
				return false
			}
		}
		return true
	})
}

// handleAssign recognizes the two pin-taking shapes.
func (w *walker) handleAssign(s *ast.AssignStmt, st state) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	obj := analysis.CalleeObject(w.pass.TypesInfo, call)
	if obj == nil {
		return
	}

	// Handle pins: v1, unpin, ..., err := x.pinBlock(...). The unpin
	// closure is located by type — the func() result — not by position,
	// so pin functions may grow extra results (pinBlock's loaded bytes)
	// without silently escaping the check.
	if PinFuncs[obj.Name()] && len(s.Lhs) >= 2 {
		unpinIdx := len(s.Lhs) - 2
		if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Results().Len() == len(s.Lhs) {
			for i := 0; i < sig.Results().Len(); i++ {
				if rs, isFn := sig.Results().At(i).Type().Underlying().(*types.Signature); isFn &&
					rs.Params().Len() == 0 && rs.Results().Len() == 0 {
					unpinIdx = i
					break
				}
			}
		}
		unpinName := identName(s.Lhs[unpinIdx])
		errName := identName(s.Lhs[len(s.Lhs)-1])
		if unpinName == "_" {
			w.pass.Reportf(s.Pos(), "the unpin closure returned by %s is discarded: the pin can never be released", obj.Name())
			return
		}
		if unpinName == "" {
			return
		}
		st[unpinName] = &pin{pos: call.Pos(), token: unpinName + "()", errVar: errName, loopDepth: w.loopDepth}
		return
	}

	// View pins: err := v.Acquire(cols)
	if obj.Name() == "Acquire" && analysis.LastResultIsError(w.pass.TypesInfo, call) {
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel {
			return
		}
		recv := analysis.ExprString(sel.X)
		if recv == "" {
			return
		}
		errName := ""
		if len(s.Lhs) >= 1 {
			errName = identName(s.Lhs[len(s.Lhs)-1])
		}
		st[recv+".Release"] = &pin{pos: call.Pos(), token: recv + ".Release()", errVar: errName, loopDepth: w.loopDepth}
	}
}

// handleRelease clears pins released by the call: recv.Release(),
// unpin(), or their deferred forms.
func (w *walker) handleRelease(call *ast.CallExpr, st state, deferred bool) {
	var key string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name != "Release" {
			return
		}
		recv := analysis.ExprString(fun.X)
		if recv == "" {
			return
		}
		key = recv + ".Release"
	case *ast.Ident:
		key = fun.Name
	default:
		return
	}
	p, live := st[key]
	if !live {
		return
	}
	if deferred {
		p.deferred = true
		return
	}
	delete(st, key)
}

func identName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// errNilCheck matches `X != nil` conditions and returns X's name.
func errNilCheck(cond ast.Expr) (string, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return "", false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if id, ok := x.(*ast.Ident); ok && isNil(y) {
		return id.Name, true
	}
	if id, ok := y.(*ast.Ident); ok && isNil(x) {
		return id.Name, true
	}
	return "", false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always transfers control away
// (ends in return, panic, continue, break, or goto).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
