package exec

import (
	"errors"
	"fmt"
	"slices"

	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// ScanMode selects the scan flavor, mirroring the configurations of
// Table 2 / Table 4.
type ScanMode int

const (
	// ModeJIT compiles a tuple-at-a-time scan: predicates are evaluated
	// inside the query pipeline. On frozen blocks this "unrolls" one
	// specialized code path per storage-layout combination (§4).
	ModeJIT ScanMode = iota
	// ModeVectorized uses the interpreted vectorized scan without SARG
	// pushdown: all tuples are copied into vectors, predicates run in the
	// pipeline.
	ModeVectorized
	// ModeVectorizedSARG pushes SARGable predicates into the vectorized
	// scan (evaluated on compressed data with SMA block skipping).
	ModeVectorizedSARG
	// ModeVectorizedSARGPSMA additionally narrows scan ranges with the
	// Positional SMA.
	ModeVectorizedSARGPSMA
)

func (m ScanMode) String() string {
	switch m {
	case ModeJIT:
		return "jit"
	case ModeVectorized:
		return "vectorized"
	case ModeVectorizedSARG:
		return "vectorized+sarg"
	case ModeVectorizedSARGPSMA:
		return "vectorized+sarg+psma"
	default:
		return fmt.Sprintf("ScanMode(%d)", int(m))
	}
}

// Node is a physical plan operator.
type Node interface {
	// OutKinds returns the kinds of the operator's output columns, or the
	// error Run would report for the plan under it: it is the type check
	// Run performs (check.go), applied to this subtree.
	OutKinds() ([]types.Kind, error)
}

// ScanNode is the leaf of every pipeline: it scans one relation.
type ScanNode struct {
	Rel *storage.Relation
	// Cols are the relation columns projected into the pipeline, in order.
	Cols []int
	// Preds are SARGable restrictions (column ordinals refer to the
	// relation schema). Depending on the scan mode they are pushed into
	// the scan or compiled into the pipeline. Every predicate column must
	// also appear in Cols so that pipeline evaluation is possible.
	Preds []core.Predicate
	// Filter is an optional residual (non-SARGable) condition over the
	// scan's output tuple; always evaluated in the pipeline.
	Filter Expr
}

// OutKinds implements Node.
func (s *ScanNode) OutKinds() ([]types.Kind, error) { return outKinds(s) }

// colOrdinal returns the pipeline slot of relation column rc, or -1.
func (s *ScanNode) colOrdinal(rc int) int {
	for i, c := range s.Cols {
		if c == rc {
			return i
		}
	}
	return -1
}

// FilterNode drops tuples failing Cond.
type FilterNode struct {
	Child Node
	Cond  Expr
}

// OutKinds implements Node.
func (f *FilterNode) OutKinds() ([]types.Kind, error) { return outKinds(f) }

// MapNode computes a new tuple layout from expressions over the child.
type MapNode struct {
	Child Node
	Exprs []Expr
}

// OutKinds implements Node.
func (m *MapNode) OutKinds() ([]types.Kind, error) { return outKinds(m) }

// JoinKind selects the join semantics.
type JoinKind int

const (
	// InnerJoin emits probe ++ build columns per match.
	InnerJoin JoinKind = iota
	// SemiJoin emits the probe tuple when at least one build match exists.
	SemiJoin
	// AntiJoin emits the probe tuple when no build match exists.
	AntiJoin
)

// JoinNode is a hash join: the build side streams into a tagged hash
// table (a pipeline breaker), the probe side streams through the
// pipeline.
type JoinNode struct {
	Build, Probe         Node
	BuildKeys, ProbeKeys []int
	Kind                 JoinKind
}

// OutKinds implements Node.
func (j *JoinNode) OutKinds() ([]types.Kind, error) { return outKinds(j) }

// AggFunc enumerates aggregate functions.
type AggFunc int

const (
	AggSum AggFunc = iota
	AggCount
	AggCountCol // COUNT(expr): non-null only
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate column.
type AggSpec struct {
	Func AggFunc
	Arg  Expr // nil for AggCount
}

// AggNode is a hash aggregation (a pipeline breaker). The output is the
// group-by columns followed by the aggregates.
type AggNode struct {
	Child   Node
	GroupBy []int
	Aggs    []AggSpec
}

// OutKinds implements Node.
func (a *AggNode) OutKinds() ([]types.Kind, error) { return outKinds(a) }

// OrderKey is one sort key of an OrderByNode.
type OrderKey struct {
	Col  int
	Desc bool
}

// OrderByNode sorts (and optionally limits) the materialized child result.
type OrderByNode struct {
	Child Node
	Keys  []OrderKey
	Limit int // 0 = no limit
}

// OutKinds implements Node.
func (o *OrderByNode) OutKinds() ([]types.Kind, error) { return outKinds(o) }

// planned is what the front end learned about one plan node.
type planned struct {
	kinds []types.Kind // of the node's output columns
	// exprs are the node's expressions, checked: a FilterNode's condition,
	// a MapNode's expressions, an AggNode's arguments (nil for COUNT(*)),
	// and for a ScanNode the conjuncts of the condition its pipeline
	// evaluates — the Filter's, behind the Preds where the scan does not
	// evaluate those itself.
	exprs []*checked
	// live marks the output columns the node's consumers read (markLive).
	// What an operator does not read it neither unpacks, copies nor
	// compacts; a dead batch column may hold stale data.
	live []bool
}

// checkedPlan holds the checked form of every node of a query plan. Run and
// CompileOnly fill it once per query, before anything is built, scanned or
// compiled; every OutKinds is the same walk.
type checkedPlan struct {
	nodes map[Node]*planned
	// sargsPushed says the scans evaluate their Preds themselves (the SARG
	// modes), so a predicate is checked as a SARG only and not also as a
	// pipeline condition — which a predicate core.Predicate.Check accepts
	// always is, so the mode changes no verdict.
	sargsPushed bool
}

func outKinds(n Node) ([]types.Kind, error) {
	return (&checkedPlan{nodes: map[Node]*planned{}}).check(n)
}

// check types the plan under n and returns n's output kinds.
func (pl *checkedPlan) check(n Node) ([]types.Kind, error) {
	p := &planned{}
	var err error
	switch n := n.(type) {
	case *ScanNode:
		err = p.checkScan(pl, n)
	case *FilterNode:
		if p.kinds, err = pl.check(n.Child); err == nil {
			p.exprs = make([]*checked, 1)
			p.exprs[0], err = checkBool(n.Cond, p.kinds)
		}
	case *MapNode:
		err = p.checkMap(pl, n)
	case *JoinNode:
		err = p.checkJoin(pl, n)
	case *AggNode:
		err = p.checkAgg(pl, n)
	case *OrderByNode:
		p.kinds, err = pl.check(n.Child)
		for _, k := range n.Keys {
			if err == nil && (k.Col < 0 || k.Col >= len(p.kinds)) {
				err = fmt.Errorf("exec: order-by column %d out of range", k.Col)
			}
		}
	default:
		err = fmt.Errorf("exec: unknown plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	pl.nodes[n] = p
	return p.kinds, nil
}

// markLive adds live, the output columns a consumer of n reads (nil:
// every column), to n's live set and, when that grew, what n reads of its
// inputs to theirs: a node reached twice reads the union.
func (pl *checkedPlan) markLive(n Node, live []bool) {
	p := pl.nodes[n]
	grew := p.live == nil
	if grew {
		p.live = make([]bool, len(p.kinds))
	}
	for c := range p.live {
		if !p.live[c] && (live == nil || live[c]) {
			p.live[c], grew = true, true
		}
	}
	if !grew {
		return
	}
	switch n := n.(type) {
	case *ScanNode:
		reads(p.live, p.exprs)
	case *FilterNode:
		pl.markLive(n.Child, reads(slices.Clone(p.live), p.exprs))
	case *MapNode:
		pl.markLive(n.Child, reads(make([]bool, len(pl.nodes[n.Child].kinds)), p.exprs))
	case *AggNode:
		in := reads(make([]bool, len(pl.nodes[n.Child].kinds)), p.exprs)
		pl.markLive(n.Child, withKeys(in, n.GroupBy))
	case *JoinNode:
		np := len(pl.nodes[n.Probe].kinds)
		build := make([]bool, len(pl.nodes[n.Build].kinds))
		if n.Kind == InnerJoin {
			copy(build, p.live[np:])
		}
		pl.markLive(n.Probe, withKeys(slices.Clone(p.live[:np]), n.ProbeKeys))
		pl.markLive(n.Build, withKeys(build, n.BuildKeys))
	case *OrderByNode:
		pl.markLive(n.Child, nil)
	}
}

// reads marks in live the columns exprs read and returns it.
func reads(live []bool, exprs []*checked) []bool {
	for _, e := range exprs {
		for _, c := range e.cols(nil) {
			live[c] = true
		}
	}
	return live
}

// withKeys marks the columns keys in live and returns it.
func withKeys(live []bool, keys []int) []bool {
	for _, c := range keys {
		live[c] = true
	}
	return live
}

func (p *planned) checkScan(pl *checkedPlan, s *ScanNode) error {
	schema := s.Rel.Schema()
	for _, c := range s.Cols {
		if c < 0 || c >= schema.NumColumns() {
			return fmt.Errorf("exec: scan column %d out of range", c)
		}
		p.kinds = append(p.kinds, schema.Columns[c].Kind)
	}
	conds := make([]Expr, 0, len(s.Preds)+1)
	for _, pr := range s.Preds {
		slot := s.colOrdinal(pr.Col)
		if slot < 0 {
			return fmt.Errorf("exec: predicate column %d not in scan projection", pr.Col)
		}
		if err := pr.Check(p.kinds[slot]); err != nil {
			return fmt.Errorf("exec: predicate on column %d: %w", pr.Col, err)
		}
		if !pl.sargsPushed {
			conds = append(conds, predExpr(pr, slot))
		}
	}
	if s.Filter != nil {
		conds = splitConjuncts(s.Filter, conds)
	}
	for _, e := range conds {
		c, err := checkBool(e, p.kinds)
		if err != nil {
			return err
		}
		p.exprs = append(p.exprs, c)
	}
	return nil
}

// predExpr rewrites a SARGable predicate as a pipeline expression over the
// scan-output tuple.
func predExpr(p core.Predicate, slot int) Expr {
	switch p.Op {
	case types.IsNull:
		return IsNullExpr{E: Col(slot)}
	case types.IsNotNull:
		return IsNullExpr{E: Col(slot), Not: true}
	case types.Between:
		return Compare{Op: types.Between, L: Col(slot), R: Const{Val: p.Lo}, R2: Const{Val: p.Hi}}
	default:
		return Compare{Op: p.Op, L: Col(slot), R: Const{Val: p.Lo}}
	}
}

// splitConjuncts appends the conjuncts of e's ∧-spine to out.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if l, ok := e.(Logic); ok && l.Op == '&' {
		out = splitConjuncts(l.L, out)
		return splitConjuncts(l.R, out)
	}
	return append(out, e)
}

func (p *planned) checkMap(pl *checkedPlan, m *MapNode) error {
	in, err := pl.check(m.Child)
	if err != nil {
		return err
	}
	for _, e := range m.Exprs {
		c, err := checkValue(e, in)
		if err != nil {
			return err
		}
		c = c.unscaled()
		p.exprs, p.kinds = append(p.exprs, c), append(p.kinds, c.kind)
	}
	return nil
}

func (p *planned) checkJoin(pl *checkedPlan, j *JoinNode) error {
	probe, err := pl.check(j.Probe)
	if err != nil {
		return err
	}
	build, err := pl.check(j.Build)
	if err != nil {
		return err
	}
	if len(j.ProbeKeys) != len(j.BuildKeys) {
		return fmt.Errorf("exec: join has %d probe keys for %d build keys", len(j.ProbeKeys), len(j.BuildKeys))
	}
	for i, pk := range j.ProbeKeys {
		bk := j.BuildKeys[i]
		if pk < 0 || pk >= len(probe) || bk < 0 || bk >= len(build) || probe[pk] != build[bk] {
			return fmt.Errorf("exec: join probe key %d does not match build key %d", pk, bk)
		}
	}
	p.kinds = probe
	if j.Kind == InnerJoin {
		p.kinds = append(append(make([]types.Kind, 0, len(probe)+len(build)), probe...), build...)
	}
	return nil
}

func (p *planned) checkAgg(pl *checkedPlan, a *AggNode) error {
	in, err := pl.check(a.Child)
	if err != nil {
		return err
	}
	for _, g := range a.GroupBy {
		if g < 0 || g >= len(in) {
			return fmt.Errorf("exec: group-by column %d out of range", g)
		}
		p.kinds = append(p.kinds, in[g])
	}
	for _, spec := range a.Aggs {
		var arg *checked
		kind := types.Int64 // the counts
		if spec.Func != AggCount {
			if arg, err = checkValue(spec.Arg, in); err != nil {
				return err
			}
		}
		switch spec.Func {
		case AggCount, AggCountCol:
		case AggSum, AggAvg:
			// A sum folds its argument's kind: integers, scaled or not,
			// exactly, doubles in row order; it yields a double either way.
			if arg.kind == types.String {
				return errors.New("exec: sum over strings")
			}
			kind = types.Float64
		case AggMin, AggMax:
			arg = arg.unscaled()
			kind = arg.kind
		default:
			return fmt.Errorf("exec: unknown aggregate function %d", spec.Func)
		}
		p.exprs, p.kinds = append(p.exprs, arg), append(p.kinds, kind)
	}
	return nil
}
