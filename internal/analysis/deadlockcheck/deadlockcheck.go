// Package deadlockcheck proves the engine's lock order acyclic. It
// replaces the pairwise rank check lockcheck carried before dbvet v2
// with an interprocedural acquires-before graph:
//
//   - Per function, a may-hold dataflow over the control-flow graph
//     records which lock classes ("Relation.mu", "Chunk.loadMu", …) can
//     be held at every acquisition and call site. Acquiring B while
//     holding A contributes the edge A→B.
//   - Per package, a call-graph fixpoint folds callee acquisitions into
//     caller summaries, so `r.mu.Lock(); c.load()` contributes
//     Relation.mu→Chunk.loadMu even when the loadMu.Lock() sits three
//     calls deep. The fixpoint is bounded by the module's import DAG:
//     summaries of other packages arrive as analysis facts (threaded
//     in memory by the driver, in dependency order), already
//     transitively closed. Functions without a visible
//     body or summary — interface methods, function values, stdlib —
//     contribute nothing; a *Locked name or a //dbvet:locks annotation
//     is exactly the summary at that boundary: the callee requires its
//     lock held and acquires nothing new.
//   - The documented order (Order) seeds the graph: DB.mu before
//     DB.catMu before tableStripe.wmu before relStripe.mu before
//     Chunk.loadMu before Relation.mu before Relation.loadErrMu before
//     the WAL's Log.flushMu before Log.mu. Any observed edge that closes a cycle
//     against the seeded and accumulated graph — a pairwise inversion,
//     or a cycle spanning any number of hops and packages — is
//     reported at the acquisition or call that creates it.
package deadlockcheck

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"datablocks/internal/analysis"
	"datablocks/internal/analysis/cfg"
	"datablocks/internal/analysis/dataflow"
	"datablocks/internal/analysis/lockutil"
)

// Order is the engine's documented acquires-before chain, the seed of
// the lock-order graph (see internal/storage's package doc and
// ARCHITECTURE.md, "Enforced invariants").
var Order = []string{
	"DB.mu",
	"DB.catMu",
	"tableStripe.wmu",
	"relStripe.mu",
	"Chunk.loadMu",
	"Relation.mu",
	"Relation.loadErrMu",
	"Log.flushMu",
	"Log.mu",
}

// Analyzer is the deadlockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "deadlockcheck",
	Doc:  "build the interprocedural acquires-before lock graph and report any cycle",
	Run:  run,
}

// packageFact is what one package exports for its dependents: the
// transitively-closed acquisition summaries of its functions, and the
// cumulative edge set of the package and everything below it.
type packageFact struct {
	Funcs map[string]funcSummary `json:"funcs,omitempty"`
	Edges [][2]string            `json:"edges,omitempty"`
}

type funcSummary struct {
	Acquires []string `json:"acquires"`
}

// callSite is one resolved call with the lock classes possibly held.
type callSite struct {
	callee string
	held   []string
	pos    token.Pos
}

// funcInfo is the per-function analysis before the fixpoint.
type funcInfo struct {
	id       string
	acquires map[string]bool
	calls    []callSite
}

type observedEdge struct{ from, to string }

func run(pass *analysis.Pass) (any, error) {
	ann := lockutil.CollectAnnotations(pass)

	// Dependency summaries and their accumulated edges.
	depFuncs := map[string]funcSummary{}
	edgeSites := map[observedEdge][]token.Pos{} // own edges, every site
	depEdges := map[observedEdge]bool{}
	for _, raw := range pass.DepFacts("deadlockcheck") {
		var f packageFact
		if json.Unmarshal(raw, &f) != nil {
			continue
		}
		for id, s := range f.Funcs {
			depFuncs[id] = s
		}
		for _, e := range f.Edges {
			depEdges[observedEdge{e[0], e[1]}] = true
		}
	}

	// Pass 1: per-function may-hold replay.
	var funcs []*funcInfo
	byID := map[string]*funcInfo{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := analyzeBody(pass, fd.Body, lockutil.EntryLocks(pass.TypesInfo, fd, ann), edgeSites)
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fi.id = obj.FullName()
				byID[fi.id] = fi
			}
			funcs = append(funcs, fi)
			// Function literals run as independent roots: nothing held
			// at entry unless they acquire it themselves, and no
			// exported summary (nothing can name them), but the edges
			// and calls they perform are real.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					funcs = append(funcs, analyzeBody(pass, lit.Body, dataflow.LockSet{}, edgeSites))
					return false
				}
				return true
			})
		}
	}

	// Pass 2: transitively close acquisition summaries over the
	// package call graph. Same-package callees resolve to their
	// evolving summary; cross-package callees to the (final) dep fact;
	// everything else — including *Locked and //dbvet:locks callees,
	// which by contract hold rather than acquire — contributes nothing.
	summaryOf := func(id string) map[string]bool {
		if fi, ok := byID[id]; ok {
			return fi.acquires
		}
		if s, ok := depFuncs[id]; ok {
			out := make(map[string]bool, len(s.Acquires))
			for _, c := range s.Acquires {
				out[c] = true
			}
			return out
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			for _, cs := range fi.calls {
				for c := range summaryOf(cs.callee) {
					if !fi.acquires[c] {
						fi.acquires[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: edges through calls — holding H while calling a function
	// that (transitively) acquires A is the acquisition order H→A.
	for _, fi := range funcs {
		for _, cs := range fi.calls {
			for a := range summaryOf(cs.callee) {
				for _, h := range cs.held {
					e := observedEdge{h, a}
					edgeSites[e] = append(edgeSites[e], cs.pos)
				}
			}
		}
	}

	// Build the acquires-before graph incrementally, keeping it acyclic:
	// start from the documented seed, add the dependency edges (their
	// inversions were already reported where they happen; a cycle-closing
	// dep edge is dropped rather than poisoning this package), then fold
	// in the observed edges in source order. An edge consistent with the
	// graph so far joins it; an edge that would close a cycle is the
	// deviation, reported at every site that creates it — the documented
	// order stays blameless even when a file contains both directions.
	g := newGraph()
	for i := 0; i+1 < len(Order); i++ {
		g.add(Order[i], Order[i+1])
	}
	sortedDep := make([]observedEdge, 0, len(depEdges))
	for e := range depEdges {
		sortedDep = append(sortedDep, e)
	}
	sort.Slice(sortedDep, func(i, j int) bool {
		if sortedDep[i].from != sortedDep[j].from {
			return sortedDep[i].from < sortedDep[j].from
		}
		return sortedDep[i].to < sortedDep[j].to
	})
	accepted := map[observedEdge]bool{}
	for _, e := range sortedDep {
		if e.from != e.to && g.path(e.to, e.from) == nil {
			g.add(e.from, e.to)
			accepted[e] = true
		}
	}
	own := make([]observedEdge, 0, len(edgeSites))
	for e, sites := range edgeSites {
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		own = append(own, e)
	}
	sort.Slice(own, func(i, j int) bool { return edgeSites[own[i]][0] < edgeSites[own[j]][0] })
	for _, e := range own {
		path := g.path(e.to, e.from)
		if path == nil {
			g.add(e.from, e.to)
			accepted[e] = true
			continue
		}
		for _, pos := range edgeSites[e] {
			pass.Reportf(pos,
				"acquiring %s while holding %s creates a cycle in the acquires-before graph: %s",
				e.to, e.from, renderCycle(e, path))
		}
	}

	// Export: own summaries (already transitively closed) plus the
	// cumulative acyclic edge set, deterministically sorted.
	fact := packageFact{Funcs: map[string]funcSummary{}}
	for id, fi := range byID {
		if len(fi.acquires) == 0 {
			continue
		}
		acq := make([]string, 0, len(fi.acquires))
		for c := range fi.acquires {
			acq = append(acq, c)
		}
		sort.Strings(acq)
		fact.Funcs[id] = funcSummary{Acquires: acq}
	}
	for e := range accepted {
		fact.Edges = append(fact.Edges, [2]string{e.from, e.to})
	}
	sort.Slice(fact.Edges, func(i, j int) bool {
		if fact.Edges[i][0] != fact.Edges[j][0] {
			return fact.Edges[i][0] < fact.Edges[j][0]
		}
		return fact.Edges[i][1] < fact.Edges[j][1]
	})
	if len(fact.Funcs) > 0 || len(fact.Edges) > 0 {
		if err := pass.ExportFact(fact); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// analyzeBody runs the may-hold fixpoint over one body, recording
// direct acquisition edges into edgeSites and returning the function's
// direct acquisitions and resolved call sites.
func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt, entry dataflow.LockSet, edgeSites map[observedEdge][]token.Pos) *funcInfo {
	g := cfg.New(body)
	cls := &lockutil.Classifier{
		Info:    pass.TypesInfo,
		Entry:   entry,
		Aliases: lockutil.ResolveAliases(g, pass.TypesInfo),
	}
	lat := dataflow.Locks{C: cls, Must: false}
	res := dataflow.Forward(g, lat)

	fi := &funcInfo{acquires: map[string]bool{}}
	for _, b := range g.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		held := lat.Copy(in)
		visit := func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit, *ast.RangeStmt, *ast.DeferStmt:
					// Literals are separate roots; a deferred unlock is
					// not an acquisition; deferred calls run at return
					// with unknowable held sets — skip conservatively.
					return false
				case *ast.CallExpr:
					applySite(pass, cls, n, held, fi, edgeSites)
				}
				return true
			})
		}
		for _, n := range b.Nodes {
			visit(n)
		}
	}
	return fi
}

// applySite classifies one call: a lock operation updates held and
// records direct edges; any other resolvable call becomes a call site
// with the currently-held classes.
func applySite(pass *analysis.Pass, cls *lockutil.Classifier, call *ast.CallExpr, held dataflow.LockSet, fi *funcInfo, edgeSites map[observedEdge][]token.Pos) {
	if op, tok, class := cls.ClassifyLockOp(call); op != 0 {
		switch op {
		case +1:
			// Re-acquiring the identical token is lockcheck's
			// self-deadlock, not an ordering edge; a second instance of
			// the same class (a.mu held, b.mu acquired) is.
			if _, dup := held[tok]; class != "" && !dup {
				fi.acquires[class] = true
				for _, h := range heldClasses(held) {
					e := observedEdge{h, class}
					edgeSites[e] = append(edgeSites[e], call.Pos())
				}
			}
			held[tok] = class
		case -1:
			delete(held, tok)
		}
		return
	}
	obj, ok := analysis.CalleeObject(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return
	}
	classes := heldClasses(held)
	if len(classes) == 0 {
		// Nothing held: the callee's acquisitions order against nothing
		// here, but the call still matters for this function's own
		// transitive summary.
		fi.calls = append(fi.calls, callSite{callee: obj.FullName(), pos: call.Pos()})
		return
	}
	fi.calls = append(fi.calls, callSite{callee: obj.FullName(), held: classes, pos: call.Pos()})
}

func heldClasses(held dataflow.LockSet) []string {
	seen := map[string]bool{}
	var out []string
	for _, class := range held {
		if class != "" && !seen[class] {
			seen[class] = true
			out = append(out, class)
		}
	}
	sort.Strings(out)
	return out
}

// graph is the acquires-before digraph over lock classes.
type graph struct{ succs map[string]map[string]bool }

func newGraph() *graph { return &graph{succs: map[string]map[string]bool{}} }

func (g *graph) add(from, to string) {
	m := g.succs[from]
	if m == nil {
		m = map[string]bool{}
		g.succs[from] = m
	}
	m[to] = true
}

// path returns some path from → to (inclusive), or nil. A self-path
// (from == to) requires an actual edge or cycle, except the trivial
// case where the query asks from==to and an edge from→from exists.
func (g *graph) path(from, to string) []string {
	if from == to {
		return []string{from, to}
	}
	prev := map[string]string{}
	queue := []string{from}
	seen := map[string]bool{from: true}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(g.succs[n]))
		for s := range g.succs[n] {
			next = append(next, s)
		}
		sort.Strings(next)
		for _, s := range next {
			if seen[s] {
				continue
			}
			seen[s] = true
			prev[s] = n
			if s == to {
				var path []string
				for cur := to; ; cur = prev[cur] {
					path = append([]string{cur}, path...)
					if cur == from {
						return path
					}
				}
			}
			queue = append(queue, s)
		}
	}
	return nil
}

// renderCycle formats the cycle the edge closes: the edge itself, then
// the return path.
func renderCycle(e observedEdge, path []string) string {
	out := e.from
	for _, n := range path {
		out += " → " + n
	}
	return out
}
