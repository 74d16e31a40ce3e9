package detect

import (
	"slices"
	"sort"
	"strings"

	"homeguard/internal/envmodel"
	"homeguard/internal/rule"
	"homeguard/internal/solver"
)

// This file implements the compile-once layer of the detector: every
// InstalledApp is compiled exactly once per Install/Reconfigure into a
// CompiledRuleSet — canonical formulas, solver variable declarations,
// action effects, trigger metadata, the footprint and the verdict
// signature — so pair checks consume precompiled artifacts instead of
// re-running canonVar/canonFormula/declareVars per pair. Before this
// layer, canonicalization ran O(rules × pairs) times: each DetectPair
// re-renamed and re-substituted both rules' formulas from scratch.
//
// Compilation is a pure function of the app's exported fields (Info,
// Rules, Config) plus the immutable capability/envmodel registries — it
// never reads detector state — so a compiled set computed by one detector
// is valid in any other, the same contract fp and sig already obeyed.
// What stays per-detector is variable *declaration* (solver domains):
// enum-input options and the home's mode universe live on the Detector,
// so compiled artifacts carry declaration plans (varDecl) rather than
// materialized domains.

// varDecl is the declaration plan for one canonical variable of a
// compiled formula: its name, its kind/type metadata, and the string
// values the formula compares it against (sorted), which widen enum
// domains at declaration time.
type varDecl struct {
	name     string
	v        rule.Var
	observed []string
}

// envProp pairs a condition variable with the environment property its
// attribute suffix senses.
type envProp struct {
	varName string
	prop    envmodel.Property
}

// compiledRule is the per-rule compilation artifact.
type compiledRule struct {
	r   *rule.Rule
	qid string // r.QualifiedID(), precomputed for cache keys

	// Canonical formulas (variables renamed to home-global form, config
	// values substituted) and their declaration plans.
	situation rule.Constraint // trigger-constraint ∧ condition
	condition rule.Constraint // condition only
	situDecls []varDecl
	condDecls []varDecl

	// Trigger metadata for Covert-Triggering channels.
	trigSkip       bool // "app"/"time" subjects cannot be fired by actions
	trigAnyChange  bool
	trigVar        string // canonical variable the trigger subscribes to
	trigConstraint rule.Constraint
	trigProp       envmodel.Property
	trigPropOK     bool
	trigBoundDir   int // one-sided bound direction of the raw trigger constraint

	// Condition metadata for Enabling/Disabling-Condition detection.
	condAlways   bool
	condVarSet   map[string]rule.Var
	condEnvProps []envProp // sorted by variable name

	// Action effects: device-state writes (with their equality constraints
	// pre-rendered) and environment drifts.
	effects    []deviceEffect
	effectCs   []rule.Constraint
	envEffects envmodel.Effects

	// Action device identity for the GC same-actuator exclusion, and the
	// canonical first action parameter for setpoint-style bounds.
	actionIsInput bool
	actionDevKey  string
	setpointTerm  rule.Term
}

// CompiledRuleSet is the per-app artifact compiled once at
// Install/Reconfigure and consumed by every pair check: compiled rules,
// the app's canonical read/write footprint, and (when a verdict cache is
// configured) the verdict signature that PairKey hashing reuses instead
// of re-serializing the rule set.
type CompiledRuleSet struct {
	rules []compiledRule
	index map[*rule.Rule]int
	fp    *rule.Footprint
	sig   []byte
}

// Compiled returns the app's compiled rule set, or nil before the first
// Install/Reconfigure/CheckPair involving the app.
func (app *InstalledApp) Compiled() *CompiledRuleSet { return app.comp }

// Footprint returns the app's canonical read/write footprint, or nil
// before the app was compiled (Precompile/Install/Reconfigure). The audit
// engine feeds it to a FootprintIndex to generate candidate pairs.
func (app *InstalledApp) Footprint() *rule.Footprint { return app.fp }

// ensureCompiled compiles the app on first use by this or any detector
// (DetectPair may be called on apps that were never installed; they get
// the same compilation Install would produce).
func (d *Detector) ensureCompiled(app *InstalledApp) *CompiledRuleSet {
	if app.comp == nil {
		d.prepare(app)
	}
	return app.comp
}

// compiledFor returns the compiled form of one rule, compiling a one-off
// artifact for rules that are not part of the app's rule set (hand-built
// rules in tests).
func (d *Detector) compiledFor(app *InstalledApp, r *rule.Rule) *compiledRule {
	comp := d.ensureCompiled(app)
	if i, ok := comp.index[r]; ok {
		return &comp.rules[i]
	}
	cr := d.compileRule(app, r, d.configBindings(app))
	return &cr
}

// compile builds the app's CompiledRuleSet.
func (d *Detector) compile(app *InstalledApp) *CompiledRuleSet {
	rules := app.Rules.Rules
	cs := &CompiledRuleSet{
		rules: make([]compiledRule, 0, len(rules)),
		index: make(map[*rule.Rule]int, len(rules)),
	}
	bind := d.configBindings(app)
	for i, r := range rules {
		cs.rules = append(cs.rules, d.compileRule(app, r, bind))
		cs.index[r] = i
	}
	cs.fp = footprintFromCompiled(cs)
	return cs
}

// compileRule compiles one rule against the app's config bindings.
func (d *Detector) compileRule(app *InstalledApp, r *rule.Rule, bind map[string]rule.Term) compiledRule {
	c := compiledRule{r: r, qid: r.QualifiedID()}

	c.situation = d.canonFormulaBind(app, r.TriggerConditionFormula(), bind)
	c.condition = d.canonFormulaBind(app, r.Condition.Formula(), bind)
	c.situDecls = compileDecls(c.situation)
	c.condDecls = compileDecls(c.condition)

	t := r.Trigger
	c.trigSkip = t.Subject == "app" || t.Subject == "time"
	c.trigAnyChange = t.AnyChange()
	c.trigVar = d.canonTriggerVar(app, r)
	if !c.trigAnyChange {
		c.trigConstraint = d.canonFormulaBind(app, t.Constraint, bind)
		// The bound direction is read off the raw constraint: config
		// substitution may replace a user-input threshold with a constant,
		// which must not change how the trigger's one-sidedness is judged.
		c.trigBoundDir = boundDirection(t.Constraint)
	}
	c.trigProp, c.trigPropOK = envmodel.AttributeProperty(t.Attribute)

	c.condAlways = r.Condition.Always()
	c.condVarSet = rule.VarSet(c.condition)
	if len(c.condVarSet) > 0 {
		names := make([]string, 0, len(c.condVarSet))
		for name := range c.condVarSet {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			attr := name
			if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
				attr = name[dot+1:]
			}
			if p, ok := envmodel.AttributeProperty(attr); ok {
				c.condEnvProps = append(c.condEnvProps, envProp{varName: name, prop: p})
			}
		}
	}

	c.effects = d.actionEffectsBind(app, r, bind)
	if len(c.effects) > 0 {
		c.effectCs = make([]rule.Constraint, len(c.effects))
		for i := range c.effects {
			c.effectCs[i] = c.effects[i].constraint()
		}
	}
	c.envEffects = d.envEffects(app, r)

	if in := app.Info.Input(r.Action.Subject); in != nil {
		c.actionIsInput = true
		c.actionDevKey = d.deviceKey(app, r.Action.Subject)
	}
	if len(r.Action.Params) > 0 {
		c.setpointTerm = d.canonTermBind(app, r.Action.Params[0], bind)
	}
	return c
}

// footprintFromCompiled assembles the app footprint from compiled rules;
// see footprintOf's doc comment in footprint.go for what reads and writes
// cover. The compiled situation declarations carry exactly the variable
// names rule.VarSet reported, so the footprint is unchanged — it is just
// no longer a second canonicalization pass.
func footprintFromCompiled(cs *CompiledRuleSet) *rule.Footprint {
	fp := rule.NewFootprint()
	for i := range cs.rules {
		c := &cs.rules[i]
		for _, dec := range c.situDecls {
			addReadName(fp, dec.name)
		}
		if !c.trigSkip {
			addReadName(fp, c.trigVar)
			if c.trigPropOK {
				fp.AddRead(propKey(c.trigProp))
			}
		}
		for _, eff := range c.effects {
			fp.AddWrite(eff.varName)
		}
		for p, sign := range c.envEffects {
			if sign != envmodel.None {
				fp.AddWrite(propKey(p))
			}
		}
	}
	return fp
}

// compileDecls computes the declaration plan of a formula: every
// referenced variable with the string values it is compared against.
// Names and observed values are sorted so declaration is deterministic
// (the map-driven predecessor declared in map-iteration order). The plan
// is retained by the compiled rule, so it is copied out of the scratch
// at its exact size.
func compileDecls(f rule.Constraint) []varDecl {
	if f == nil {
		return nil
	}
	var s declScratch
	plan := s.plan(f)
	if plan == nil {
		return nil
	}
	out := make([]varDecl, len(plan))
	for i, dec := range plan {
		dec.observed = slices.Clone(dec.observed)
		out[i] = dec
	}
	return out
}

// declScratch is the storage a declaration plan is built in. Query-path
// plans (declareVars) are consumed at once, so a pair-check detector
// keeps one declScratch and rebuilds every plan in it without
// allocating.
type declScratch struct {
	vars  []rule.Var // every variable occurrence, in walk order
	obs   []observed // every (variable, string constant) comparison
	vals  []string   // observed values, grouped by variable and sorted
	decls []varDecl
}

type observed struct{ name, val string }

// plan returns the declaration plan of the conjunction of formulas,
// backed by s (valid until the next plan on s). A variable occurring
// with differing metadata keeps its last occurrence in walk order, as
// rule.VarSet does.
func (s *declScratch) plan(formulas ...rule.Constraint) []varDecl {
	s.vars, s.obs = s.vars[:0], s.obs[:0]
	for _, f := range formulas {
		s.collect(f)
	}
	if len(s.vars) == 0 {
		return nil
	}
	slices.SortStableFunc(s.vars, func(a, b rule.Var) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.obs, func(a, b observed) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return strings.Compare(a.val, b.val)
	})
	s.obs = slices.Compact(s.obs)
	s.vals = s.vals[:0]
	for _, o := range s.obs {
		s.vals = append(s.vals, o.val)
	}
	s.decls = s.decls[:0]
	j := 0 // next unconsumed observation; every observed name is a variable
	for i, v := range s.vars {
		if i+1 < len(s.vars) && s.vars[i+1].Name == v.Name {
			continue // a later occurrence of the same name wins
		}
		k := j
		for k < len(s.obs) && s.obs[k].name == v.Name {
			k++
		}
		var obs []string
		if k > j {
			obs = s.vals[j:k:k]
		}
		s.decls = append(s.decls, varDecl{name: v.Name, v: v, observed: obs})
		j = k
	}
	return s.decls
}

// collect records the variables of c and the string values each is
// compared against.
func (s *declScratch) collect(c rule.Constraint) {
	switch x := c.(type) {
	case rule.Cmp:
		lv, lVar := x.L.(rule.Var)
		rv, rVar := x.R.(rule.Var)
		if lVar {
			s.vars = append(s.vars, lv)
			if str, ok := x.R.(rule.StrVal); ok {
				s.obs = append(s.obs, observed{lv.Name, string(str)})
			}
		}
		if rVar {
			s.vars = append(s.vars, rv)
			if str, ok := x.L.(rule.StrVal); ok {
				s.obs = append(s.obs, observed{rv.Name, string(str)})
			}
		}
	case rule.And:
		for _, sub := range x.Cs {
			s.collect(sub)
		}
	case rule.Or:
		for _, sub := range x.Cs {
			s.collect(sub)
		}
	case rule.Not:
		s.collect(x.C)
	}
}

// declareGroups declares the variables of up to two precompiled
// declaration plans into the problem, unioning observed values for
// variables both plans reference (both formulas' comparisons widen the
// shared variable's enum domain, exactly as the one-pass walk did).
// Groups are sorted by name, so this is a linear merge.
func (d *Detector) declareGroups(p *solver.Problem, a, b []varDecl) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].name < b[j].name:
			d.declareVar(p, a[i].name, a[i].v, a[i].observed)
			i++
		case a[i].name > b[j].name:
			d.declareVar(p, b[j].name, b[j].v, b[j].observed)
			j++
		default:
			d.declareVar(p, a[i].name, a[i].v, unionSorted(a[i].observed, b[j].observed))
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		d.declareVar(p, a[i].name, a[i].v, a[i].observed)
	}
	for ; j < len(b); j++ {
		d.declareVar(p, b[j].name, b[j].v, b[j].observed)
	}
}

// unionSorted merges two sorted string slices without duplicates.
func unionSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
