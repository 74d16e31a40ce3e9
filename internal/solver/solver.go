package solver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"homeguard/internal/rule"
)

// DefaultIntMin and DefaultIntMax bound auto-declared integer variables.
const (
	DefaultIntMin = -1_000_000
	DefaultIntMax = 1_000_000
)

// ErrSearchLimit is returned when the search exceeds its node budget —
// in practice never hit by rule-interference formulas.
var ErrSearchLimit = errors.New("solver: search node limit exceeded")

// Value is a model value for one variable.
type Value struct {
	Int  int64
	Enum string // non-empty for enum variables
}

func (v Value) String() string {
	if v.Enum != "" {
		return v.Enum
	}
	return fmt.Sprintf("%d", v.Int)
}

// Model is a satisfying assignment.
type Model map[string]Value

// variable is the solver-internal variable record. Variables are interned:
// each declared name maps to a dense index into Problem.vars, and every
// later structure (stores, atoms, the difference-constraint graph) works in
// indices, never names — the string only resurfaces in the final Model.
type variable struct {
	name string
	enum []string // enum value names; nil for integer variables
	dom  Domain
}

// Problem is one satisfiability query under construction.
type Problem struct {
	vars     []variable     // indexed by variable id, in declaration order
	index    map[string]int // name → id
	formulas []rule.Constraint
	nodeCap  int
	// unsat is set when an added constraint constant-folds to false: the
	// conjunction is trivially unsatisfiable and Solve skips the search.
	unsat bool

	// lastSolution is the store captured by the search at the moment every
	// binary atom is decided. It is owned by the in-flight Solve call only:
	// Solve extracts the witness model from it and immediately recycles the
	// store, clearing the field before returning. It never aliases the root
	// store of a previous Solve, because each Solve rebuilds its root from
	// the declared domains in p.vars — search narrows domains only inside
	// per-call stores, never in p.vars — which is what makes calling Solve
	// repeatedly on one Problem deterministic. (Problem is still not safe
	// for concurrent use.)
	lastSolution *store

	// ivs is the interval arena declared domains are carved from (see
	// domain).
	ivs []Interval

	// Scratch buffers reused across the many diffUnsat calls one search
	// performs (one per labeling node); see diffUnsat.
	diffNode  []int32
	diffEdges []diffEdge
	diffDist  []int64
	diffVars  []int32
}

// defaultNodeCap is the search node budget a new or Reset problem gets.
const defaultNodeCap = 200_000

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{index: map[string]int{}, nodeCap: defaultNodeCap}
}

// Reset empties the problem for reuse: no variables, no formulas, the
// unsat flag cleared and the default node budget, exactly as NewProblem
// leaves it. The backing storage (variable table, name index, formula
// list, search scratch) is kept, so a caller that solves many small
// queries in sequence stops allocating it per query. References the
// previous query held (formulas, enum value slices) are dropped, not
// just truncated over.
func (p *Problem) Reset() {
	clear(p.vars)
	p.vars = p.vars[:0]
	clear(p.index)
	clear(p.formulas)
	p.formulas = p.formulas[:0]
	p.ivs = p.ivs[:0]
	p.nodeCap = defaultNodeCap
	p.unsat = false
	p.lastSolution = nil
}

// domain returns the domain [lo, hi] like NewDomain, with its interval
// carved from the problem's arena: the declarations of one query share a
// backing array instead of allocating an interval each. Domains are
// immutable values (every operation returns fresh intervals), so sharing
// is safe, and Reset recycles the arena only when the previous query's
// domains are dead: Solve copies them into per-call stores, which are
// overwritten before any later read, and a Model holds plain values.
func (p *Problem) domain(lo, hi int64) Domain {
	if lo > hi {
		return Domain{}
	}
	p.ivs = append(p.ivs, Interval{lo, hi})
	n := len(p.ivs)
	return Domain{ivs: p.ivs[n-1 : n : n]}
}

// SetNodeCap overrides the search node budget (default 200k). Exhausting
// the budget surfaces as ErrSearchLimit from Solve. A cap <= 0 is ignored.
func (p *Problem) SetNodeCap(n int) {
	if n > 0 {
		p.nodeCap = n
	}
}

// AddIntVar declares an integer variable with domain [min, max].
// Redeclaring narrows the existing domain.
func (p *Problem) AddIntVar(name string, min, max int64) {
	if id, ok := p.index[name]; ok {
		v := &p.vars[id]
		if v.enum == nil {
			v.dom = v.dom.Intersect(NewDomain(min, max))
		}
		return
	}
	p.index[name] = len(p.vars)
	p.vars = append(p.vars, variable{name: name, dom: p.domain(min, max)})
}

// AddEnumVar declares an enumeration variable with the given values. The
// slice is retained, not copied — callers must not mutate it after the
// call (the detector passes registry-owned or freshly built slices).
func (p *Problem) AddEnumVar(name string, values []string) {
	if _, ok := p.index[name]; ok {
		return
	}
	p.index[name] = len(p.vars)
	p.vars = append(p.vars, variable{
		name: name,
		enum: values,
		dom:  p.domain(0, int64(len(values)-1)),
	})
}

// boolValues and otherValues are the shared, never-mutated value tables
// of boolean variables and of string variables with no observed values.
var (
	boolValues  = []string{"false", "true"}
	otherValues = []string{"\x00other"}
)

// AddBoolVar declares a boolean variable (an enum of false/true).
func (p *Problem) AddBoolVar(name string) {
	p.AddEnumVar(name, boolValues)
}

// HasVar reports whether the variable is declared.
func (p *Problem) HasVar(name string) bool {
	_, ok := p.index[name]
	return ok
}

// EnumValues returns the declared values of an enum variable (nil for
// integer variables or unknown names).
func (p *Problem) EnumValues(name string) []string {
	if id, ok := p.index[name]; ok {
		return p.vars[id].enum
	}
	return nil
}

// AddConstraint records a formula that the model must satisfy. Variables
// referenced but not declared are auto-declared: integer variables with
// the default bounds when compared against integers, enum variables with
// the observed string values otherwise.
//
// Constraints are constant-folded on the way in: comparisons between two
// constants collapse to literals, conjunctions and disjunctions simplify
// around them, and a formula that folds to false marks the whole problem
// trivially UNSAT so Solve never enters the search.
func (p *Problem) AddConstraint(c rule.Constraint) {
	if c == nil {
		return
	}
	c = foldConstraint(c)
	if lit, ok := c.(rule.Lit); ok {
		if !bool(lit) {
			p.unsat = true
		}
		return
	}
	p.autoDeclare(c)
	// Top-level conjunctions are pre-split so the search worklist never
	// re-flattens them (the common shape: one And per rule formula).
	if a, ok := c.(rule.And); ok {
		p.formulas = append(p.formulas, a.Cs...)
		return
	}
	p.formulas = append(p.formulas, c)
}

// foldConstraint constant-folds a formula: const-const comparisons become
// literals and And/Or/Not simplify around them. Comparisons it cannot
// evaluate soundly (ordered string comparisons, unknown constraint types)
// are left for the search, which reports them as errors exactly as before.
func foldConstraint(c rule.Constraint) rule.Constraint {
	out, _ := foldC(c)
	return out
}

// Preboxed literal constraints: returning rule.Lit through the Constraint
// interface would otherwise allocate on every fold.
var (
	litTrue  rule.Constraint = rule.TrueC
	litFalse rule.Constraint = rule.FalseC
)

func boxLit(b bool) rule.Constraint {
	if b {
		return litTrue
	}
	return litFalse
}

// foldC returns c itself, not a re-boxed copy of its concrete value, when
// nothing folds: converting a struct back to the interface would allocate
// on every query.
func foldC(c rule.Constraint) (rule.Constraint, bool) {
	switch x := c.(type) {
	case rule.Cmp:
		li, lInt := constInt(x.L)
		ri, rInt := constInt(x.R)
		if lInt && rInt {
			return boxLit(evalConst(x.Op, li, ri)), true
		}
		ls, lStr := x.L.(rule.StrVal)
		rs, rStr := x.R.(rule.StrVal)
		// Any const pair with at least one string side: equal only when
		// both are the same string (mirrors assertCmp's const-const
		// handling; ordered string comparisons stay for the error path).
		lConst, rConst := lInt || lStr, rInt || rStr
		if lConst && rConst && (lStr || rStr) && (x.Op == rule.OpEq || x.Op == rule.OpNe) {
			eq := lStr && rStr && ls == rs
			if x.Op == rule.OpNe {
				eq = !eq
			}
			return boxLit(eq), true
		}
		return c, false
	case rule.And:
		folded, changed := foldList(x.Cs)
		if !changed {
			return c, false
		}
		return rule.Conj(folded...), true
	case rule.Or:
		folded, changed := foldList(x.Cs)
		if !changed {
			return c, false
		}
		return rule.Disj(folded...), true
	case rule.Not:
		f, changed := foldC(x.C)
		if lit, ok := f.(rule.Lit); ok {
			return boxLit(!bool(lit)), true
		}
		if !changed {
			return c, false
		}
		return rule.Not{C: f}, true
	}
	return c, false
}

// constInt extracts integer-valued constants (ints and bools).
func constInt(t rule.Term) (int64, bool) {
	switch x := t.(type) {
	case rule.IntVal:
		return int64(x), true
	case rule.BoolVal:
		if bool(x) {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func foldList(cs []rule.Constraint) ([]rule.Constraint, bool) {
	changed := false
	out := cs
	for i, sub := range cs {
		f, ch := foldC(sub)
		if ch && !changed {
			changed = true
			out = append([]rule.Constraint(nil), cs...)
		}
		if changed {
			out[i] = f
		}
	}
	// A literal anywhere forces the Conj/Disj rebuild even when no child
	// changed (a pre-existing Lit in the slice).
	if !changed {
		for _, sub := range cs {
			if _, ok := sub.(rule.Lit); ok {
				return append([]rule.Constraint(nil), cs...), true
			}
		}
	}
	return out, changed
}

func (p *Problem) autoDeclare(c rule.Constraint) {
	switch x := c.(type) {
	case rule.Cmp:
		p.autoDeclareTerm(x.L, x.R)
		p.autoDeclareTerm(x.R, x.L)
	case rule.And:
		for _, sub := range x.Cs {
			p.autoDeclare(sub)
		}
	case rule.Or:
		for _, sub := range x.Cs {
			p.autoDeclare(sub)
		}
	case rule.Not:
		p.autoDeclare(x.C)
	}
}

func (p *Problem) autoDeclareTerm(t, other rule.Term) {
	var v rule.Var
	switch x := t.(type) {
	case rule.Var:
		v = x
	case rule.Sum:
		v = x.X
	default:
		return
	}
	if p.HasVar(v.Name) {
		return
	}
	switch o := other.(type) {
	case rule.StrVal:
		// Enum variable whose value set is unknown: declare with the
		// observed value plus a distinguished "other" value so both == and
		// != are satisfiable.
		p.AddEnumVar(v.Name, []string{string(o), "\x00other"})
	case rule.BoolVal:
		p.AddBoolVar(v.Name)
	default:
		if v.Type == rule.TypeString {
			p.AddEnumVar(v.Name, otherValues)
			return
		}
		p.AddIntVar(v.Name, DefaultIntMin, DefaultIntMax)
	}
}

// ---------- atoms ----------

// atom is a pending binary (var-vs-var) comparison after normalization:
// x op y + k, with x and y variable ids. The ops "enumEq"/"enumNe" mark
// enum correspondences checked at labeling time.
type atom struct {
	op   rule.CmpOp
	x, y int32
	k    int64
}

// store is the propagation state: current domains (indexed by variable
// id) plus pending binary atoms. Stores are pooled: the search clones one
// per branch and recycles failed branches, so the steady-state allocation
// of a solve is the handful of stores live on the deepest branch — not
// one map per node as in the map-backed predecessor.
type store struct {
	doms []Domain
	bins []atom
}

var storePool = sync.Pool{New: func() any { return new(store) }}

// cloneStore copies s into a pooled store. Domains are immutable values
// (every Domain operation returns a fresh interval slice), so the shallow
// copy shares interval backing arrays safely.
func cloneStore(s *store) *store {
	c := storePool.Get().(*store)
	c.doms = append(c.doms[:0], s.doms...)
	c.bins = append(c.bins[:0], s.bins...)
	return c
}

func releaseStore(s *store) {
	storePool.Put(s)
}

// Solve decides satisfiability of the conjunction of all added formulas.
// It returns a witness model when satisfiable.
//
// Solve may be called repeatedly on one Problem and is deterministic: the
// root store is rebuilt from the declared domains each call and the search
// narrows domains only inside per-call stores, so no state from one call
// leaks into the next (see lastSolution).
func (p *Problem) Solve() (Model, bool, error) {
	return p.solve(true)
}

// Sat decides satisfiability exactly as Solve does but builds no witness
// model, for callers that need only the verdict.
func (p *Problem) Sat() (bool, error) {
	_, ok, err := p.solve(false)
	return ok, err
}

func (p *Problem) solve(withModel bool) (Model, bool, error) {
	if p.unsat {
		return nil, false, nil
	}
	st := storePool.Get().(*store)
	st.doms = st.doms[:0]
	st.bins = st.bins[:0]
	for i := range p.vars {
		st.doms = append(st.doms, p.vars[i].dom)
	}
	budget := p.nodeCap
	ok, err := p.search(p.formulas, st, &budget)
	if err != nil || !ok {
		releaseStore(st)
		return nil, false, err
	}
	// The search captured the deciding store (possibly a descendant clone
	// of st) in lastSolution; extract the witness, then recycle both.
	var m Model
	if withModel {
		m = p.model(p.lastSolution)
	}
	if p.lastSolution != st {
		releaseStore(p.lastSolution)
	}
	releaseStore(st)
	p.lastSolution = nil
	return m, true, nil
}

// model renders a witness from a decided store.
func (p *Problem) model(st *store) Model {
	m := Model{}
	for i := range p.vars {
		v := &p.vars[i]
		dom := st.doms[i]
		if dom.Empty() {
			continue
		}
		val := dom.Min()
		if v.enum != nil {
			idx := int(val)
			if idx >= 0 && idx < len(v.enum) {
				m[v.name] = Value{Enum: v.enum[idx], Int: val}
				continue
			}
		}
		m[v.name] = Value{Int: val}
	}
	return m
}

// search processes the formula worklist depth-first, branching on
// disjunctions, then labels variables. st is owned by the caller; search
// never releases it, only clones it for branches.
func (p *Problem) search(formulas []rule.Constraint, st *store, budget *int) (bool, error) {
	*budget--
	if *budget <= 0 {
		return false, ErrSearchLimit
	}
	for len(formulas) > 0 {
		f := formulas[0]
		formulas = formulas[1:]
		switch x := f.(type) {
		case nil:
			continue
		case rule.Lit:
			if !bool(x) {
				return false, nil
			}
		case rule.And:
			formulas = append(append([]rule.Constraint(nil), x.Cs...), formulas...)
		case rule.Not:
			formulas = append([]rule.Constraint{rule.Negate(x.C)}, formulas...)
		case rule.Or:
			for _, alt := range x.Cs {
				sub := append([]rule.Constraint{alt}, formulas...)
				child := cloneStore(st)
				ok, err := p.search(sub, child, budget)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
				releaseStore(child)
			}
			return false, nil
		case rule.Cmp:
			ok, err := p.assertCmp(x, st)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		default:
			return false, fmt.Errorf("solver: unsupported constraint %T", f)
		}
	}
	if !p.propagate(st) {
		return false, nil
	}
	return p.label(st, budget)
}

// assertCmp translates one comparison into domain narrowing and/or a
// pending binary atom. Returns false when immediately unsatisfiable.
func (p *Problem) assertCmp(c rule.Cmp, st *store) (bool, error) {
	l, lOK := p.resolveTerm(c.L)
	r, rOK := p.resolveTerm(c.R)
	if !lOK || !rOK {
		return false, fmt.Errorf("solver: unresolvable term in %s", c)
	}
	// const-const
	if l.isConst && r.isConst {
		if l.isStr || r.isStr {
			eq := l.isStr && r.isStr && l.str == r.str
			switch c.Op {
			case rule.OpEq:
				return eq, nil
			case rule.OpNe:
				return !eq, nil
			default:
				return false, fmt.Errorf("solver: ordered comparison on string constants in %s", c)
			}
		}
		return evalConst(c.Op, l.c, r.c), nil
	}
	// const op var → flip
	if l.isConst {
		if l.isStr {
			return p.assertStrCmp(c.Op.Flip(), r, l.str, st)
		}
		return p.assertVarConst(c.Op.Flip(), r, l.c, st)
	}
	if r.isConst {
		if r.isStr {
			return p.assertStrCmp(c.Op, l, r.str, st)
		}
		return p.assertVarConst(c.Op, l, r.c, st)
	}
	return p.assertVarVar(c.Op, l, r, st)
}

// resolved is a normalized term: constant, or variable id + offset.
type resolved struct {
	isConst bool
	isStr   bool
	c       int64
	str     string // string constant carrier
	id      int32  // variable id
	off     int64
}

func (p *Problem) resolveTerm(t rule.Term) (resolved, bool) {
	switch x := t.(type) {
	case rule.IntVal:
		return resolved{isConst: true, c: int64(x)}, true
	case rule.BoolVal:
		if bool(x) {
			return resolved{isConst: true, c: 1}, true
		}
		return resolved{isConst: true, c: 0}, true
	case rule.StrVal:
		// String constants resolve against the other side's enum table in
		// assertStrCmp.
		return resolved{isConst: true, isStr: true, str: string(x)}, true
	case rule.Var:
		id, ok := p.index[x.Name]
		if !ok {
			return resolved{}, false
		}
		return resolved{id: int32(id)}, true
	case rule.Sum:
		id, ok := p.index[x.X.Name]
		if !ok {
			return resolved{}, false
		}
		return resolved{id: int32(id), off: x.K}, true
	}
	return resolved{}, false
}

func evalConst(op rule.CmpOp, a, b int64) bool {
	switch op {
	case rule.OpEq:
		return a == b
	case rule.OpNe:
		return a != b
	case rule.OpLt:
		return a < b
	case rule.OpLe:
		return a <= b
	case rule.OpGt:
		return a > b
	case rule.OpGe:
		return a >= b
	}
	return false
}

// assertVarConst narrows var (+off) op const.
func (p *Problem) assertVarConst(op rule.CmpOp, v resolved, c int64, st *store) (bool, error) {
	dom := st.doms[v.id]
	// x + off op c  ⇔  x op c - off
	c -= v.off
	switch op {
	case rule.OpEq:
		dom = dom.Only(c)
	case rule.OpNe:
		dom = dom.Remove(c)
	case rule.OpLt:
		dom = dom.ClampMax(c - 1)
	case rule.OpLe:
		dom = dom.ClampMax(c)
	case rule.OpGt:
		dom = dom.ClampMin(c + 1)
	case rule.OpGe:
		dom = dom.ClampMin(c)
	}
	st.doms[v.id] = dom
	return !dom.Empty(), nil
}

// assertStrCmp narrows an enum variable against a string constant.
func (p *Problem) assertStrCmp(op rule.CmpOp, v resolved, s string, st *store) (bool, error) {
	pv := &p.vars[v.id]
	if pv.enum == nil {
		return false, fmt.Errorf("solver: comparing integer variable %q to string %q", pv.name, s)
	}
	idx := int64(-1)
	for i, val := range pv.enum {
		if val == s {
			idx = int64(i)
			break
		}
	}
	switch op {
	case rule.OpEq:
		if idx < 0 {
			st.doms[v.id] = Domain{}
			return false, nil
		}
		return p.assertVarConst(rule.OpEq, v, idx, st)
	case rule.OpNe:
		if idx < 0 {
			return true, nil // always distinct
		}
		return p.assertVarConst(rule.OpNe, v, idx, st)
	default:
		return false, fmt.Errorf("solver: ordered comparison %s on enum variable %q", op, pv.name)
	}
}

// assertVarVar records x op y + k as a pending binary atom.
func (p *Problem) assertVarVar(op rule.CmpOp, l, r resolved, st *store) (bool, error) {
	// Two enum variables: only ==/!= are meaningful; translate to a
	// disjunction over shared value names.
	lv, rv := &p.vars[l.id], &p.vars[r.id]
	if lv.enum != nil || rv.enum != nil {
		if lv.enum == nil || rv.enum == nil {
			return false, fmt.Errorf("solver: comparing enum %q with integer %q", lv.name, rv.name)
		}
		return p.assertEnumVarVar(op, l, r, st)
	}
	// x + lo op y + ro  ⇔  x op y + (ro - lo)
	st.bins = append(st.bins, atom{op: op, x: l.id, y: r.id, k: r.off - l.off})
	return narrowBinary(st, st.bins[len(st.bins)-1]), nil
}

func (p *Problem) assertEnumVarVar(op rule.CmpOp, l, r resolved, st *store) (bool, error) {
	lv, rv := &p.vars[l.id], &p.vars[r.id]
	switch op {
	case rule.OpEq, rule.OpNe:
	default:
		return false, fmt.Errorf("solver: ordered comparison %s between enum variables", op)
	}
	// Build index correspondence over shared value names.
	common := map[int64]int64{} // l index → r index
	for i, lval := range lv.enum {
		for j, rval := range rv.enum {
			if lval == rval {
				common[int64(i)] = int64(j)
			}
		}
	}
	if op == rule.OpEq {
		// Disjunction over shared values; encode directly by trimming
		// both domains to shared values and linking via bins with offset
		// — offsets differ per value, so fall back to explicit search:
		// keep it simple and sound by enumerating.
		ld, rd := st.doms[l.id], st.doms[r.id]
		var lKeep, rKeep []int64
		for li, ri := range common {
			if ld.Contains(li) && rd.Contains(ri) {
				lKeep = append(lKeep, li)
				rKeep = append(rKeep, ri)
			}
		}
		if len(lKeep) == 0 {
			st.doms[l.id] = Domain{}
			return false, nil
		}
		st.doms[l.id] = keepOnly(ld, lKeep)
		st.doms[r.id] = keepOnly(rd, rKeep)
		// Record the correspondence so labeling respects it: encode each
		// pair as a conditional; with tiny enum domains, add a pending
		// enum-equality atom checked at labeling time.
		st.bins = append(st.bins, atom{op: "enumEq", x: l.id, y: r.id})
		return true, nil
	}
	// != between enums: satisfied unless both are pinned to the same name.
	st.bins = append(st.bins, atom{op: "enumNe", x: l.id, y: r.id})
	return true, nil
}

func keepOnly(d Domain, vals []int64) Domain {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := Domain{}
	for _, v := range vals {
		if d.Contains(v) {
			out.ivs = append(out.ivs, Interval{v, v})
		}
	}
	// merge adjacent
	var merged []Interval
	for _, iv := range out.ivs {
		if n := len(merged); n > 0 && merged[n-1].Hi+1 >= iv.Lo {
			if iv.Hi > merged[n-1].Hi {
				merged[n-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return Domain{ivs: merged}
}

// narrowBinary applies bounds propagation for one binary atom.
// Returns false when a domain becomes empty.
func narrowBinary(st *store, a atom) bool {
	if a.op == "enumEq" || a.op == "enumNe" {
		return true // handled at labeling
	}
	dx, dy := st.doms[a.x], st.doms[a.y]
	if dx.Empty() || dy.Empty() {
		return false
	}
	fail := func() bool {
		st.doms[a.x] = dx
		st.doms[a.y] = dy
		return false
	}
	// x op y + k
	switch a.op {
	case rule.OpEq:
		dx = dx.Intersect(shift(dy, a.k))
		if dx.Empty() {
			return fail()
		}
		dy = dy.Intersect(shift(dx, -a.k))
	case rule.OpNe:
		if dy.Singleton() {
			dx = dx.Remove(dy.Min() + a.k)
		}
		if dx.Singleton() {
			dy = dy.Remove(dx.Min() - a.k)
		}
	case rule.OpLt:
		dx = dx.ClampMax(dy.Max() + a.k - 1)
		if dx.Empty() {
			return fail()
		}
		dy = dy.ClampMin(dx.Min() - a.k + 1)
	case rule.OpLe:
		dx = dx.ClampMax(dy.Max() + a.k)
		if dx.Empty() {
			return fail()
		}
		dy = dy.ClampMin(dx.Min() - a.k)
	case rule.OpGt:
		dx = dx.ClampMin(dy.Min() + a.k + 1)
		if dx.Empty() {
			return fail()
		}
		dy = dy.ClampMax(dx.Max() - a.k - 1)
	case rule.OpGe:
		dx = dx.ClampMin(dy.Min() + a.k)
		if dx.Empty() {
			return fail()
		}
		dy = dy.ClampMax(dx.Max() - a.k)
	}
	st.doms[a.x] = dx
	st.doms[a.y] = dy
	return !dx.Empty() && !dy.Empty()
}

func shift(d Domain, k int64) Domain {
	if k == 0 {
		return d
	}
	out := Domain{ivs: make([]Interval, len(d.ivs))}
	for i, iv := range d.ivs {
		out.ivs[i] = Interval{iv.Lo + k, iv.Hi + k}
	}
	return out
}

// propagate runs the binary atoms toward fixpoint. Progress is detected
// via a cheap per-variable fingerprint (size, min, max, interval count):
// every narrowing step strictly shrinks some domain, so the fingerprint
// changes. Rounds are capped: cyclic strict inequalities (x < y ∧ y < x
// over large ranges) converge only one unit per round, so after the cap we
// return early and let the bisection search finish the refutation —
// stopping before fixpoint is sound, merely less eager.
func (p *Problem) propagate(st *store) bool {
	if len(st.bins) == 0 {
		return true
	}
	const maxRounds = 64
	for iter := 0; iter < maxRounds; iter++ {
		before := fingerprint(st)
		for _, a := range st.bins {
			if !narrowBinary(st, a) {
				return false
			}
		}
		if fingerprint(st) == before {
			return true
		}
	}
	return true
}

func fingerprint(st *store) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, a := range st.bins {
		for _, id := range [2]int32{a.x, a.y} {
			d := st.doms[id]
			if d.Empty() {
				mix(0xdead)
				continue
			}
			mix(uint64(d.Size()))
			mix(uint64(d.Min()))
			mix(uint64(d.Max()))
			mix(uint64(len(d.ivs)))
		}
	}
	return h
}

type diffEdge struct {
	from, to int32
	w        int64
}

// diffUnsat runs a Bellman–Ford negative-cycle check over the difference
// constraints in the store (every ordering/equality atom is of the form
// x ≤ y + k). Cyclic systems such as x < y ∧ y < x are refuted instantly
// here, where bounds propagation would converge one unit per round. All
// working storage lives in Problem-level scratch buffers: label calls
// this once per search node, and the map-backed predecessor allocated
// four structures per call.
func (p *Problem) diffUnsat(st *store) bool {
	if len(st.bins) == 0 {
		return false
	}
	// diffNode maps variable id → node number (0 = absent; origin is node
	// 0 in the distance array, variables start at 1).
	if len(p.diffNode) < len(p.vars) {
		p.diffNode = make([]int32, len(p.vars))
	}
	nodes := p.diffNode
	for i := range nodes {
		nodes[i] = 0
	}
	p.diffVars = p.diffVars[:0]
	var next int32 = 1
	node := func(id int32) int32 {
		if nodes[id] == 0 {
			nodes[id] = next
			next++
			p.diffVars = append(p.diffVars, id)
		}
		return nodes[id]
	}
	edges := p.diffEdges[:0]
	for _, a := range st.bins {
		switch a.op {
		case rule.OpLe: // x ≤ y + k
			edges = append(edges, diffEdge{node(a.y), node(a.x), a.k})
		case rule.OpLt: // x ≤ y + k - 1
			edges = append(edges, diffEdge{node(a.y), node(a.x), a.k - 1})
		case rule.OpGe: // y ≤ x - k
			edges = append(edges, diffEdge{node(a.x), node(a.y), -a.k})
		case rule.OpGt: // y ≤ x - k - 1
			edges = append(edges, diffEdge{node(a.x), node(a.y), -a.k - 1})
		case rule.OpEq: // both directions
			edges = append(edges,
				diffEdge{node(a.y), node(a.x), a.k},
				diffEdge{node(a.x), node(a.y), -a.k})
		}
	}
	if len(edges) == 0 {
		p.diffEdges = edges
		return false
	}
	// Domain bounds: x ≤ max (origin→x) and -x ≤ -min (x→origin).
	for _, id := range p.diffVars {
		d := st.doms[id]
		if d.Empty() {
			p.diffEdges = edges
			return true
		}
		i := nodes[id]
		edges = append(edges, diffEdge{0, i, d.Max()}, diffEdge{i, 0, -d.Min()})
	}
	p.diffEdges = edges
	n := int(next)
	if cap(p.diffDist) < n {
		p.diffDist = make([]int64, n)
	}
	dist := p.diffDist[:n]
	for i := range dist {
		dist[i] = 0
	}
	for iter := 0; iter <= n; iter++ {
		changed := false
		for _, e := range edges {
			if nd := dist[e.from] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true // still relaxing after |V| rounds ⇒ negative cycle
}

// label assigns constraint-involved variables until all binary atoms are
// decided, backtracking on failure. On success the deciding store is
// captured in p.lastSolution for Solve to extract the model from; failed
// branch stores are recycled into the pool.
func (p *Problem) label(st *store, budget *int) (bool, error) {
	*budget--
	if *budget <= 0 {
		return false, ErrSearchLimit
	}
	if !p.propagate(st) {
		return false, nil
	}
	if p.diffUnsat(st) {
		return false, nil
	}
	// Check enum equality atoms and find an undecided variable.
	pick := int32(-1)
	var pickSize int64
	for _, a := range st.bins {
		dx, dy := st.doms[a.x], st.doms[a.y]
		if dx.Empty() || dy.Empty() {
			return false, nil
		}
		if dx.Singleton() && dy.Singleton() {
			if !p.atomHolds(a, dx.Min(), dy.Min()) {
				return false, nil
			}
			continue
		}
		for _, id := range [2]int32{a.x, a.y} {
			d := st.doms[id]
			if !d.Singleton() && (pick < 0 || d.Size() < pickSize) {
				pick, pickSize = id, d.Size()
			}
		}
	}
	if pick < 0 {
		p.lastSolution = st
		return true, nil
	}
	d := st.doms[pick]
	// Small domains: enumerate values; large: bisect.
	if d.Size() <= 8 {
		for v := d.Min(); v <= d.Max(); v++ {
			if !d.Contains(v) {
				continue
			}
			child := cloneStore(st)
			child.doms[pick] = singleton(v)
			ok, err := p.label(child, budget)
			if err != nil || ok {
				return ok, err
			}
			releaseStore(child)
		}
		return false, nil
	}
	lo, hi := d.Split()
	for _, half := range [2]Domain{lo, hi} {
		if half.Empty() {
			continue
		}
		child := cloneStore(st)
		child.doms[pick] = half
		ok, err := p.label(child, budget)
		if err != nil || ok {
			return ok, err
		}
		releaseStore(child)
	}
	return false, nil
}

// atomHolds checks a decided binary atom.
func (p *Problem) atomHolds(a atom, xv, yv int64) bool {
	switch a.op {
	case "enumEq":
		return p.enumName(a.x, xv) == p.enumName(a.y, yv)
	case "enumNe":
		return p.enumName(a.x, xv) != p.enumName(a.y, yv)
	default:
		return evalConst(a.op, xv, yv+a.k)
	}
}

func (p *Problem) enumName(id int32, idx int64) string {
	v := &p.vars[id]
	if v.enum == nil || idx < 0 || idx >= int64(len(v.enum)) {
		return fmt.Sprintf("#%d", idx)
	}
	return v.enum[idx]
}
