package solver

import (
	"errors"
	"reflect"
	"testing"

	"homeguard/internal/rule"
)

func intVar(name string) rule.Var {
	return rule.Var{Name: name, Kind: rule.VarDeviceAttr, Type: rule.TypeInt}
}

func strVar(name string) rule.Var {
	return rule.Var{Name: name, Kind: rule.VarDeviceAttr, Type: rule.TypeString}
}

// TestSolveTwiceDeterministic pins the lastSolution ownership contract:
// Solve rebuilds its root store from the declared domains on every call
// and recycles the captured solution store before returning, so repeated
// Solve calls on one Problem are independent and deterministic. (This
// resolves the old in-line doubt about whether the search mutated the
// root store on the success path: it narrows only per-call stores.)
func TestSolveTwiceDeterministic(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		p.AddIntVar("x", 0, 1000)
		p.AddIntVar("y", 0, 1000)
		p.AddEnumVar("mode", []string{"Home", "Away", "Night"})
		// A disjunction plus binary atoms forces branching and labeling —
		// the paths that clone and recycle stores.
		p.AddConstraint(rule.Or{Cs: []rule.Constraint{
			rule.Cmp{Op: rule.OpLt, L: intVar("x"), R: rule.IntVal(10)},
			rule.Cmp{Op: rule.OpGt, L: intVar("x"), R: rule.IntVal(990)},
		}})
		p.AddConstraint(rule.Cmp{Op: rule.OpLt, L: intVar("x"), R: intVar("y")})
		p.AddConstraint(rule.Cmp{Op: rule.OpNe, L: strVar("mode"), R: rule.StrVal("Home")})
		return p
	}
	p := build()
	m1, sat1, err1 := p.Solve()
	m2, sat2, err2 := p.Solve()
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if !sat1 || !sat2 {
		t.Fatalf("sat flipped across calls: %v, %v", sat1, sat2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("models differ across Solve calls on one Problem:\n  first:  %v\n  second: %v", m1, m2)
	}
	// And a fresh problem built identically agrees too.
	m3, _, _ := build().Solve()
	if !reflect.DeepEqual(m1, m3) {
		t.Fatalf("models differ across identically built problems:\n  %v\n  %v", m1, m3)
	}
}

// TestEnumNeqPairs covers != between enum variables on the slice-backed
// core: satisfiable while either side has an alternative value, and
// refuted when both collapse to the same single shared name.
func TestEnumNeqPairs(t *testing.T) {
	p := NewProblem()
	p.AddEnumVar("a", []string{"on", "off"})
	p.AddEnumVar("b", []string{"on", "off"})
	p.AddConstraint(rule.Cmp{Op: rule.OpNe, L: strVar("a"), R: strVar("b")})
	m, sat, err := p.Solve()
	if err != nil || !sat {
		t.Fatalf("a != b over {on,off}: want SAT, got sat=%v err=%v", sat, err)
	}
	if m["a"].Enum == m["b"].Enum {
		t.Fatalf("witness violates a != b: %v", m)
	}

	// Pin both to "on" via unary constraints: now a != b is refutable.
	p2 := NewProblem()
	p2.AddEnumVar("a", []string{"on", "off"})
	p2.AddEnumVar("b", []string{"on", "off"})
	p2.AddConstraint(rule.Cmp{Op: rule.OpNe, L: strVar("a"), R: strVar("b")})
	p2.AddConstraint(rule.Cmp{Op: rule.OpEq, L: strVar("a"), R: rule.StrVal("on")})
	p2.AddConstraint(rule.Cmp{Op: rule.OpEq, L: strVar("b"), R: rule.StrVal("on")})
	if _, sat, err := p2.Solve(); err != nil || sat {
		t.Fatalf("a != b with both pinned to on: want UNSAT, got sat=%v err=%v", sat, err)
	}

	// Disjoint value sets: != always holds, == never does.
	p3 := NewProblem()
	p3.AddEnumVar("a", []string{"open", "closed"})
	p3.AddEnumVar("b", []string{"locked", "unlocked"})
	p3.AddConstraint(rule.Cmp{Op: rule.OpNe, L: strVar("a"), R: strVar("b")})
	if _, sat, err := p3.Solve(); err != nil || !sat {
		t.Fatalf("disjoint-enum !=: want SAT, got sat=%v err=%v", sat, err)
	}
	p4 := NewProblem()
	p4.AddEnumVar("a", []string{"open", "closed"})
	p4.AddEnumVar("b", []string{"locked", "unlocked"})
	p4.AddConstraint(rule.Cmp{Op: rule.OpEq, L: strVar("a"), R: strVar("b")})
	if _, sat, err := p4.Solve(); err != nil || sat {
		t.Fatalf("disjoint-enum ==: want UNSAT, got sat=%v err=%v", sat, err)
	}
}

// TestOffsetAtDomainBounds covers x == y + k (the shifted-domain
// propagation) exactly at and just past the domain edges.
func TestOffsetAtDomainBounds(t *testing.T) {
	eq := func(k int64) (Model, bool, error) {
		p := NewProblem()
		p.AddIntVar("x", 0, 10)
		p.AddIntVar("y", 0, 10)
		p.AddConstraint(rule.Cmp{Op: rule.OpEq,
			L: intVar("x"), R: rule.Sum{X: intVar("y"), K: k}})
		return p.Solve()
	}
	// k = 10 squeezes to the single point x=10, y=0.
	m, sat, err := eq(10)
	if err != nil || !sat {
		t.Fatalf("x == y + 10: want SAT, got sat=%v err=%v", sat, err)
	}
	if m["x"].Int != 10 || m["y"].Int != 0 {
		t.Fatalf("x == y + 10 witness: want x=10 y=0, got %v", m)
	}
	// k = -10 squeezes to x=0, y=10.
	m, sat, err = eq(-10)
	if err != nil || !sat {
		t.Fatalf("x == y - 10: want SAT, got sat=%v err=%v", sat, err)
	}
	if m["x"].Int != 0 || m["y"].Int != 10 {
		t.Fatalf("x == y - 10 witness: want x=0 y=10, got %v", m)
	}
	// One past the edge in either direction is unsatisfiable.
	if _, sat, err := eq(11); err != nil || sat {
		t.Fatalf("x == y + 11: want UNSAT, got sat=%v err=%v", sat, err)
	}
	if _, sat, err := eq(-11); err != nil || sat {
		t.Fatalf("x == y - 11: want UNSAT, got sat=%v err=%v", sat, err)
	}
}

// TestConstantFolding covers the AddConstraint pre-pass: trivially false
// conjuncts skip the search entirely, true ones vanish, and folding
// composes through And/Or/Not.
func TestConstantFolding(t *testing.T) {
	p := NewProblem()
	p.AddIntVar("x", 0, 10)
	p.AddConstraint(rule.Cmp{Op: rule.OpGt, L: rule.IntVal(3), R: rule.IntVal(7)})
	if _, sat, err := p.Solve(); err != nil || sat {
		t.Fatalf("3 > 7: want UNSAT without search, got sat=%v err=%v", sat, err)
	}

	p2 := NewProblem()
	p2.AddIntVar("x", 0, 10)
	p2.AddConstraint(rule.And{Cs: []rule.Constraint{
		rule.Cmp{Op: rule.OpLt, L: rule.IntVal(3), R: rule.IntVal(7)}, // folds away
		rule.Cmp{Op: rule.OpEq, L: intVar("x"), R: rule.IntVal(4)},
	}})
	m, sat, err := p2.Solve()
	if err != nil || !sat || m["x"].Int != 4 {
		t.Fatalf("folded conjunction: want x=4, got sat=%v m=%v err=%v", sat, m, err)
	}

	p3 := NewProblem()
	p3.AddIntVar("x", 0, 10)
	p3.AddConstraint(rule.Or{Cs: []rule.Constraint{
		rule.Cmp{Op: rule.OpEq, L: rule.StrVal("a"), R: rule.StrVal("b")}, // folds false
		rule.Cmp{Op: rule.OpEq, L: intVar("x"), R: rule.IntVal(9)},
	}})
	m, sat, err = p3.Solve()
	if err != nil || !sat || m["x"].Int != 9 {
		t.Fatalf("folded disjunction: want x=9, got sat=%v m=%v err=%v", sat, m, err)
	}

	p4 := NewProblem()
	p4.AddIntVar("x", 0, 10)
	p4.AddConstraint(rule.Not{C: rule.Cmp{Op: rule.OpNe, L: rule.StrVal("a"), R: rule.StrVal("a")}})
	if _, sat, err := p4.Solve(); err != nil || !sat {
		t.Fatalf("!(\"a\" != \"a\") should fold true: sat=%v err=%v", sat, err)
	}
}

// TestSetNodeCapSurfacesLimit: an impossibly small budget must surface
// ErrSearchLimit, never a silent verdict.
func TestSetNodeCapSurfacesLimit(t *testing.T) {
	p := NewProblem()
	p.AddIntVar("x", 0, 100000)
	p.AddIntVar("y", 0, 100000)
	p.AddConstraint(rule.Cmp{Op: rule.OpLt, L: intVar("x"), R: intVar("y")})
	p.SetNodeCap(1)
	_, _, err := p.Solve()
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("want ErrSearchLimit, got %v", err)
	}
}

// TestResetMatchesFreshProblem pins Problem.Reset: a problem that is
// Reset and refilled must answer every query exactly as a fresh
// NewProblem does — same sat result, same Model, same error — whatever
// the previous query left behind. The queries run in one sequence on a
// single reused problem, ordered so that each kind of leftover state is
// followed by a query it would corrupt: the unsat flag of a constant-false
// fold, a tiny node cap, a search-limit hit, and declared variables whose
// domains a later query redeclares differently.
func TestResetMatchesFreshProblem(t *testing.T) {
	type query struct {
		name string
		fill func(p *Problem)
	}
	lt := rule.Cmp{Op: rule.OpLt, L: intVar("x"), R: intVar("y")}
	queries := []query{
		{"constant-false fold", func(p *Problem) {
			p.AddIntVar("x", 0, 10)
			p.AddConstraint(rule.Cmp{Op: rule.OpEq, L: rule.IntVal(1), R: rule.IntVal(2)})
		}},
		{"sat after unsat fold", func(p *Problem) {
			p.AddIntVar("x", 0, 10)
			p.AddConstraint(rule.Cmp{Op: rule.OpGe, L: intVar("x"), R: rule.IntVal(7)})
		}},
		{"node cap hit", func(p *Problem) {
			p.AddIntVar("x", 0, 100000)
			p.AddIntVar("y", 0, 100000)
			p.AddConstraint(lt)
			p.SetNodeCap(1)
		}},
		{"default cap after a small one", func(p *Problem) {
			p.AddIntVar("x", 0, 100000)
			p.AddIntVar("y", 0, 100000)
			p.AddConstraint(lt)
		}},
		{"generous cap", func(p *Problem) {
			p.AddIntVar("x", 5, 9)
			p.AddIntVar("y", 0, 6)
			p.AddConstraint(lt)
			p.SetNodeCap(1000)
		}},
		{"enum redeclared after int", func(p *Problem) {
			p.AddEnumVar("x", []string{"Home", "Away", "Night"})
			p.AddConstraint(rule.Cmp{Op: rule.OpNe, L: strVar("x"), R: rule.StrVal("Home")})
			p.AddBoolVar("b")
			p.AddConstraint(rule.Cmp{Op: rule.OpEq, L: rule.Var{Name: "b", Type: rule.TypeBool}, R: rule.BoolVal(true)})
		}},
		{"auto-declared and branching", func(p *Problem) {
			p.AddConstraint(rule.Or{Cs: []rule.Constraint{
				rule.Cmp{Op: rule.OpLt, L: intVar("x"), R: rule.IntVal(-5)},
				rule.Cmp{Op: rule.OpGt, L: intVar("x"), R: rule.IntVal(500)},
			}})
			p.AddConstraint(rule.Cmp{Op: rule.OpEq, L: strVar("s"), R: rule.StrVal("on")})
		}},
		{"unsat by search", func(p *Problem) {
			p.AddIntVar("x", 0, 3)
			p.AddIntVar("y", 0, 3)
			p.AddConstraint(lt)
			p.AddConstraint(rule.Cmp{Op: rule.OpLt, L: intVar("y"), R: intVar("x")})
		}},
	}
	reused := NewProblem()
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			fresh := NewProblem()
			q.fill(fresh)
			wantM, wantSat, wantErr := fresh.Solve()

			reused.Reset()
			q.fill(reused)
			gotM, gotSat, gotErr := reused.Solve()
			if gotSat != wantSat || !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("round %d, %s: reused problem gave sat=%v err=%v, fresh gave sat=%v err=%v",
					round, q.name, gotSat, gotErr, wantSat, wantErr)
			}
			if !reflect.DeepEqual(gotM, wantM) {
				t.Fatalf("round %d, %s: models differ:\n  reused: %v\n  fresh:  %v", round, q.name, gotM, wantM)
			}
			// Sat answers the same verdict without building the model.
			reused.Reset()
			q.fill(reused)
			sat, err := reused.Sat()
			if sat != wantSat || (err == nil) != (wantErr == nil) {
				t.Fatalf("round %d, %s: Sat gave %v/%v, Solve gave %v/%v", round, q.name, sat, err, wantSat, wantErr)
			}
		}
	}
}
