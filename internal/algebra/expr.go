package algebra

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Expr is a relational algebra expression. TypeCheck must be called once
// (binding attribute references and computing the output schema) before
// Eval.
type Expr interface {
	// TypeCheck validates the expression against env, binds scalar
	// sub-expressions, and returns the output schema.
	TypeCheck(env *TypeEnv) (*schema.Relation, error)
	// Schema returns the output schema computed by TypeCheck.
	Schema() *schema.Relation
	// Eval computes the expression's relation value.
	Eval(env Env) (*relation.Relation, error)
	// String renders the expression in the textual algebra syntax.
	String() string
}

// base carries the memoized output schema shared by all expression nodes.
type base struct {
	out *schema.Relation
}

// Schema implements Expr.
func (b *base) Schema() *schema.Relation { return b.out }

// Rel references a stored relation, possibly in an auxiliary incarnation
// (old/ins/del).
type Rel struct {
	base
	Name string
	Aux  AuxKind
}

// NewRel references the current state of a base relation.
func NewRel(name string) *Rel { return &Rel{Name: name} }

// NewAuxRel references an auxiliary incarnation of a base relation.
func NewAuxRel(name string, aux AuxKind) *Rel { return &Rel{Name: name, Aux: aux} }

// TypeCheck implements Expr.
func (r *Rel) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	s, err := env.RelSchema(r.Name)
	if err != nil {
		return nil, err
	}
	r.out = s
	return s, nil
}

// Eval implements Expr.
func (r *Rel) Eval(env Env) (*relation.Relation, error) {
	return env.Rel(r.Name, r.Aux)
}

func (r *Rel) String() string {
	if r.Aux == AuxCur {
		return r.Name
	}
	return fmt.Sprintf("%s(%s)", r.Aux, r.Name)
}

// Temp references a temporary relation bound by an earlier assignment.
type Temp struct {
	base
	Name string
}

// NewTemp references the temp relation with the given name.
func NewTemp(name string) *Temp { return &Temp{Name: name} }

// TypeCheck implements Expr.
func (t *Temp) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	s, err := env.TempSchema(t.Name)
	if err != nil {
		return nil, err
	}
	t.out = s
	return s, nil
}

// Eval implements Expr.
func (t *Temp) Eval(env Env) (*relation.Relation, error) { return env.Temp(t.Name) }

func (t *Temp) String() string { return t.Name }

// Lit is a literal relation: an inline set of constant tuples with an
// explicit schema. It is how user transactions insert concrete rows.
type Lit struct {
	base
	Rows []relation.Tuple
}

// NewLit builds a literal relation with the given schema and rows.
func NewLit(s *schema.Relation, rows ...relation.Tuple) *Lit {
	l := &Lit{Rows: rows}
	l.out = s
	return l
}

// TypeCheck implements Expr.
func (l *Lit) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	if l.out == nil {
		return nil, fmt.Errorf("algebra: literal relation without schema")
	}
	for _, row := range l.Rows {
		if len(row) != l.out.Arity() {
			return nil, fmt.Errorf("algebra: literal row arity %d, want %d", len(row), l.out.Arity())
		}
		for i, v := range row {
			if !schema.TypesCompatible(l.out.Attrs[i].Type, v.Kind()) {
				return nil, fmt.Errorf("algebra: literal row attribute %q: kind %s, want %s",
					l.out.Attrs[i].Name, v.Kind(), l.out.Attrs[i].Type)
			}
		}
	}
	return l.out, nil
}

// Eval implements Expr.
func (l *Lit) Eval(Env) (*relation.Relation, error) {
	return relation.FromTuples(l.out, l.Rows...)
}

func (l *Lit) String() string {
	rows := make([]string, len(l.Rows))
	for i, r := range l.Rows {
		rows[i] = r.String()
	}
	return fmt.Sprintf("values[%s]", strings.Join(rows, ", "))
}

// Select filters the input by a boolean predicate.
type Select struct {
	base
	In   Expr
	Pred Scalar

	// Constant-equality conjuncts ("attr = const") detected at TypeCheck
	// time — parallel column positions and literal values — and constant
	// ordering conjuncts ("attr < const" and friends, negation pushed
	// through) per bounded column. When the input is a direct base-relation
	// reference and the environment has an index led by equality columns or
	// a bounded one, Eval probes it instead of scanning (planProbe).
	eqCols []int
	eqVals []value.Value
	ranges []rangePlan
}

// NewSelect builds a selection.
func NewSelect(in Expr, pred Scalar) *Select { return &Select{In: in, Pred: pred} }

// TypeCheck implements Expr.
func (s *Select) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	in, err := s.In.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	k, err := s.Pred.Bind(in)
	if err != nil {
		return nil, err
	}
	if k != value.KindBool && k != value.KindNull {
		return nil, fmt.Errorf("algebra: selection predicate has kind %s", k)
	}
	// Probes evaluate the predicate only on candidates, so planning is
	// gated on the predicate being unable to error on the tuples a probe
	// would skip (ProbeSafe) — index presence must never change a
	// statement's error into an empty success.
	s.eqCols, s.eqVals, s.ranges = nil, nil, nil
	if ProbeSafe(s.Pred) {
		s.eqCols, s.eqVals = extractConstEq(s.Pred)
		s.ranges = extractConstBounds(s.Pred)
	}
	s.out = in
	return in, nil
}

// extractConstEq walks a conjunction collecting "attr = const" comparisons
// (in either operand order) over the bound predicate; duplicate columns keep
// the first binding — the full predicate is re-applied to probe candidates,
// so any one binding per column yields a sound candidate superset.
func extractConstEq(pred Scalar) (cols []int, vals []value.Value) {
	seen := make(map[int]bool)
	var walk func(p Scalar)
	walk = func(p Scalar) {
		if a, ok := p.(*And); ok {
			walk(a.L)
			walk(a.R)
			return
		}
		c, ok := p.(*Cmp)
		if !ok || c.Op != CmpEQ {
			return
		}
		attr, aok := c.L.(*Attr)
		lit, lok := c.R.(*Const)
		if !aok || !lok {
			attr, aok = c.R.(*Attr)
			lit, lok = c.L.(*Const)
		}
		if aok && lok && attr.Index >= 0 && !seen[attr.Index] {
			seen[attr.Index] = true
			cols = append(cols, attr.Index)
			vals = append(vals, lit.V)
		}
	}
	walk(pred)
	return cols, vals
}

// Eval implements Expr.
func (s *Select) Eval(env Env) (*relation.Relation, error) {
	if r, ok := s.In.(*Rel); ok {
		candidates, probed, err := constCandidates(env, r.Name, r.Aux, s.eqCols, s.eqVals, s.ranges)
		if err != nil {
			return nil, err
		}
		if probed {
			return s.filterCandidates(candidates)
		}
	}
	in, err := s.In.Eval(env)
	if err != nil {
		return nil, err
	}
	out := relation.New(s.out)
	err = in.ForEach(func(t relation.Tuple) error {
		ok, err := evalBool(s.Pred, t)
		if err != nil {
			return err
		}
		if ok {
			out.InsertUnchecked(t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Select) String() string {
	return fmt.Sprintf("select(%s, %s)", s.In, s.Pred)
}

// Project is a generalized projection: each output column is an arbitrary
// scalar over the input tuple. The result is a set (duplicates collapse).
type Project struct {
	base
	In    Expr
	Cols  []Scalar
	Names []string // optional output column names, parallel to Cols
}

// NewProject builds a projection with optional output names.
func NewProject(in Expr, cols []Scalar, names []string) *Project {
	return &Project{In: in, Cols: cols, Names: names}
}

// ProjectAttrs is a convenience for projecting named attributes as-is.
func ProjectAttrs(in Expr, names ...string) *Project {
	cols := make([]Scalar, len(names))
	for i, n := range names {
		cols[i] = AttrByName(n)
	}
	return &Project{In: in, Cols: cols}
}

// TypeCheck implements Expr.
func (p *Project) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	in, err := p.In.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	if len(p.Cols) == 0 {
		return nil, fmt.Errorf("algebra: projection with no columns")
	}
	attrs := make([]schema.Attribute, len(p.Cols))
	used := make(map[string]bool, len(p.Cols))
	for i, c := range p.Cols {
		k, err := c.Bind(in)
		if err != nil {
			return nil, err
		}
		name := ""
		if p.Names != nil && i < len(p.Names) && p.Names[i] != "" {
			name = p.Names[i]
		} else if a, ok := c.(*Attr); ok && a.Name != "" {
			name = a.Name
		}
		if name == "" || used[name] {
			name = fmt.Sprintf("c%d", i+1)
		}
		used[name] = true
		attrs[i] = schema.Attribute{Name: name, Type: k}
	}
	out, err := schema.NewRelation("_proj", attrs...)
	if err != nil {
		return nil, err
	}
	p.out = out
	return out, nil
}

// Eval implements Expr.
func (p *Project) Eval(env Env) (*relation.Relation, error) {
	in, err := p.In.Eval(env)
	if err != nil {
		return nil, err
	}
	out := relation.New(p.out)
	err = in.ForEach(func(t relation.Tuple) error {
		row := make(relation.Tuple, len(p.Cols))
		for i, c := range p.Cols {
			v, err := c.Eval(t)
			if err != nil {
				return err
			}
			row[i] = v
		}
		out.InsertUnchecked(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Project) String() string {
	return fmt.Sprintf("project(%s, %s)", p.In, scalarList(p.Cols))
}

// Rename relabels the output schema without touching the data.
type Rename struct {
	base
	In    Expr
	Name  string   // new relation name; empty keeps the old one
	Attrs []string // new attribute names; empty keeps the old ones
}

// NewRename builds a rename node.
func NewRename(in Expr, name string, attrs []string) *Rename {
	return &Rename{In: in, Name: name, Attrs: attrs}
}

// TypeCheck implements Expr.
func (r *Rename) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	in, err := r.In.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	name := r.Name
	if name == "" {
		name = in.Name
	}
	attrs := make([]schema.Attribute, in.Arity())
	copy(attrs, in.Attrs)
	if len(r.Attrs) > 0 {
		if len(r.Attrs) != in.Arity() {
			return nil, fmt.Errorf("algebra: rename with %d names over arity %d", len(r.Attrs), in.Arity())
		}
		for i, n := range r.Attrs {
			attrs[i].Name = n
		}
	}
	out, err := schema.NewRelation(name, attrs...)
	if err != nil {
		return nil, err
	}
	r.out = out
	return out, nil
}

// Eval implements Expr.
func (r *Rename) Eval(env Env) (*relation.Relation, error) {
	in, err := r.In.Eval(env)
	if err != nil {
		return nil, err
	}
	// Schema-only operator: the persistent trie is shared outright (O(1))
	// instead of re-inserting every tuple into a fresh instance.
	return in.CloneWith(r.out), nil
}

func (r *Rename) String() string {
	if len(r.Attrs) == 0 {
		return fmt.Sprintf("rename(%s, %s)", r.In, r.Name)
	}
	return fmt.Sprintf("rename(%s, %s[%s])", r.In, r.Name, strings.Join(r.Attrs, ", "))
}
