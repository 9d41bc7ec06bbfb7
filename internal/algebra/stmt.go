package algebra

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// ViolationError reports that an alarm statement fired or an aborting rule
// ran: the transaction must abort because the named constraint would be
// violated.
type ViolationError struct {
	Constraint string // name of the violated constraint or rule
	Witnesses  int    // number of violating tuples observed (alarm only)
}

// Error implements error.
func (e *ViolationError) Error() string {
	if e.Witnesses > 0 {
		return fmt.Sprintf("integrity violation: constraint %q (%d witness tuples)", e.Constraint, e.Witnesses)
	}
	return fmt.Sprintf("integrity violation: constraint %q", e.Constraint)
}

// Stmt is one extended relational algebra statement. TypeCheck validates the
// statement against (and updates) the type environment; Exec runs it against
// an execution environment.
type Stmt interface {
	TypeCheck(env *TypeEnv) error
	Exec(env ExecEnv) error
	String() string
}

// Program is a sequence of statements (Definition 2.4). The empty program is
// the paper's P-epsilon.
type Program []Stmt

// Written returns the base relation st writes, "" when it writes none; ok
// is false for a statement kind this package does not define.
func Written(st Stmt) (rel string, ok bool) {
	switch x := st.(type) {
	case *Insert:
		return x.Rel, true
	case *Delete:
		return x.Rel, true
	case *Update:
		return x.Rel, true
	case *Assign, *Alarm, *Abort:
		return "", true
	default:
		return "", false
	}
}

// ReadRels adds to out the base relations st reads — those its expressions
// name, and the relation an update rewrites; false when st or one of its
// expression nodes is of a kind this package does not define.
func ReadRels(st Stmt, out map[string]bool) bool {
	var e Expr
	switch x := st.(type) {
	case *Assign:
		e = x.Expr
	case *Insert:
		e = x.Src
	case *Delete:
		e = x.Src
	case *Update:
		out[x.Rel] = true
	case *Alarm:
		e = x.Expr
	case *Abort:
	default:
		return false
	}
	return Rels(e, func(r *Rel) { out[r.Name] = true })
}

// Concat returns the concatenation p ⊕ q (the paper's program concatenation
// operator).
func (p Program) Concat(q Program) Program {
	out := make(Program, 0, len(p)+len(q))
	out = append(out, p...)
	return append(out, q...)
}

// TypeCheck checks every statement in order, threading temp-relation schemas
// through the type environment.
func (p Program) TypeCheck(env *TypeEnv) error {
	for i, s := range p {
		if err := s.TypeCheck(env); err != nil {
			return fmt.Errorf("statement %d: %w", i+1, err)
		}
	}
	return nil
}

// Exec runs every statement in order, stopping at the first error.
func (p Program) Exec(env ExecEnv) error {
	for _, s := range p {
		if err := s.Exec(env); err != nil {
			return err
		}
	}
	return nil
}

// String renders the program one statement per line, each terminated by a
// semicolon.
func (p Program) String() string {
	var sb strings.Builder
	for _, s := range p {
		sb.WriteString(s.String())
		sb.WriteString(";\n")
	}
	return sb.String()
}

// Assign binds a temporary relation: "name := expr".
type Assign struct {
	Temp string
	Expr Expr
}

// TypeCheck implements Stmt.
func (a *Assign) TypeCheck(env *TypeEnv) error {
	s, err := a.Expr.TypeCheck(env)
	if err != nil {
		return err
	}
	env.SetTemp(a.Temp, s.Clone(a.Temp))
	return nil
}

// Exec implements Stmt.
func (a *Assign) Exec(env ExecEnv) error {
	r, err := a.Expr.Eval(env)
	if err != nil {
		return err
	}
	return env.SetTemp(a.Temp, r)
}

func (a *Assign) String() string { return fmt.Sprintf("%s := %s", a.Temp, a.Expr) }

// Insert adds the tuples produced by Src to base relation Rel
// ("insert(R, E)").
type Insert struct {
	Rel string
	Src Expr
}

// TypeCheck implements Stmt.
func (i *Insert) TypeCheck(env *TypeEnv) error {
	target, err := env.RelSchema(i.Rel)
	if err != nil {
		return err
	}
	src, err := i.Src.TypeCheck(env)
	if err != nil {
		return err
	}
	if !target.SameType(src) {
		return fmt.Errorf("algebra: insert into %s from incompatible %s", target, src)
	}
	return nil
}

// Exec implements Stmt.
func (i *Insert) Exec(env ExecEnv) error {
	src, err := i.Src.Eval(env)
	if err != nil {
		return err
	}
	return env.InsertTuples(i.Rel, src)
}

func (i *Insert) String() string { return fmt.Sprintf("insert(%s, %s)", i.Rel, i.Src) }

// Delete removes the tuples produced by Src from base relation Rel
// ("delete(R, E)"). Deleting absent tuples is a no-op.
type Delete struct {
	Rel string
	Src Expr
}

// TypeCheck implements Stmt.
func (d *Delete) TypeCheck(env *TypeEnv) error {
	target, err := env.RelSchema(d.Rel)
	if err != nil {
		return err
	}
	src, err := d.Src.TypeCheck(env)
	if err != nil {
		return err
	}
	if !target.SameType(src) {
		return fmt.Errorf("algebra: delete from %s of incompatible %s", target, src)
	}
	return nil
}

// Exec implements Stmt.
func (d *Delete) Exec(env ExecEnv) error {
	src, err := d.Src.Eval(env)
	if err != nil {
		return err
	}
	return env.DeleteTuples(d.Rel, src)
}

func (d *Delete) String() string { return fmt.Sprintf("delete(%s, %s)", d.Rel, d.Src) }

// SetClause assigns a new value to one attribute in an update statement.
type SetClause struct {
	Attr string // attribute name in the target relation
	Expr Scalar // new value, evaluated over the pre-update tuple
	col  int
}

// Update rewrites the tuples of Rel matching Where by applying the set
// clauses ("update(R, theta, f)" of Definition GetTrigS). Operationally an
// update is a delete of the matching tuples followed by an insert of their
// images, which is also how it contributes INS and DEL triggers.
type Update struct {
	Rel   string
	Where Scalar // nil means all tuples
	Sets  []SetClause

	// Bound at TypeCheck time: the target schema, plus the constant-equality
	// and constant-ordering conjuncts of Where (parallel column positions
	// and literal values; range plans per bounded column). When the
	// environment has a covering equality index — or, for comparison conjuncts,
	// an ordered index — Exec probes it for the matching tuples instead of
	// materializing the whole current instance; the probed-key or interval
	// read it records keeps a selective update from dragging the full
	// relation into the optimistic conflict footprint.
	target *schema.Relation
	eqCols []int
	eqVals []value.Value
	ranges []rangePlan
}

// TypeCheck implements Stmt.
func (u *Update) TypeCheck(env *TypeEnv) error {
	target, err := env.RelSchema(u.Rel)
	if err != nil {
		return err
	}
	u.target = target
	u.eqCols, u.eqVals = nil, nil
	u.ranges = nil
	if u.Where != nil {
		k, err := u.Where.Bind(target)
		if err != nil {
			return err
		}
		if k != value.KindBool && k != value.KindNull {
			return fmt.Errorf("algebra: update predicate has kind %s", k)
		}
		// Gated like Select.TypeCheck: a Where that may error on skipped
		// tuples keeps the scan path and its error semantics.
		if ProbeSafe(u.Where) {
			u.eqCols, u.eqVals = extractConstEq(u.Where)
			u.ranges = extractConstBounds(u.Where)
		}
	}
	if len(u.Sets) == 0 {
		return fmt.Errorf("algebra: update of %s with no set clauses", u.Rel)
	}
	for i := range u.Sets {
		sc := &u.Sets[i]
		idx := target.AttrIndex(sc.Attr)
		if idx < 0 {
			return fmt.Errorf("algebra: update of %s: unknown attribute %q", u.Rel, sc.Attr)
		}
		sc.col = idx
		k, err := sc.Expr.Bind(target)
		if err != nil {
			return err
		}
		if !schema.TypesCompatible(target.Attrs[idx].Type, k) {
			return fmt.Errorf("algebra: update of %s.%s: kind %s, want %s",
				u.Rel, sc.Attr, k, target.Attrs[idx].Type)
		}
	}
	return nil
}

// Exec implements Stmt. When Where carries an indexable equality conjunct
// and the environment probes (ProbeEnv with a covering index on the current
// incarnation), the matching tuples are fetched by key probe — the
// environment records a probed-key read — instead of materializing the full
// current instance, which would put the whole relation into the
// transaction's read set.
func (u *Update) Exec(env ExecEnv) error {
	oldSet, newSet, probed, err := u.execProbe(env)
	if err != nil {
		return err
	}
	if !probed {
		cur, err := env.Rel(u.Rel, AuxCur)
		if err != nil {
			return err
		}
		oldSet = relation.New(cur.Schema())
		newSet = relation.New(cur.Schema())
		err = cur.ForEach(func(t relation.Tuple) error {
			return u.apply(t, oldSet, newSet)
		})
		if err != nil {
			return err
		}
	}
	if err := env.DeleteTuples(u.Rel, oldSet); err != nil {
		return err
	}
	return env.InsertTuples(u.Rel, newSet)
}

// apply evaluates Where over one candidate tuple and, on a match, records
// the tuple and its set-clause image in the delete and insert sets.
func (u *Update) apply(t relation.Tuple, oldSet, newSet *relation.Relation) error {
	if u.Where != nil {
		ok, err := evalBool(u.Where, t)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	img := t.Clone()
	for i := range u.Sets {
		v, err := u.Sets[i].Expr.Eval(t)
		if err != nil {
			return err
		}
		img[u.Sets[i].col] = v
	}
	oldSet.InsertUnchecked(t)
	newSet.InsertUnchecked(img)
	return nil
}

// execProbe answers the update's candidate scan through an index probe when
// Where has constant-equality conjuncts and the environment maintains a
// covering equality index on the current incarnation, or constant-ordering
// conjuncts and an ordered index led by the equality columns. The full
// Where predicate is re-applied to every candidate, so any sound candidate
// superset suffices. probed=false falls back to the full scan.
func (u *Update) execProbe(env ExecEnv) (oldSet, newSet *relation.Relation, probed bool, err error) {
	if u.target == nil {
		return nil, nil, false, nil
	}
	candidates, probed, err := u.probeCandidates(env)
	if err != nil || !probed {
		return nil, nil, false, err
	}
	oldSet = relation.New(u.target)
	newSet = relation.New(u.target)
	for _, t := range candidates {
		if err := u.apply(t, oldSet, newSet); err != nil {
			return nil, nil, false, err
		}
	}
	return oldSet, newSet, true, nil
}

// probeCandidates fetches the update's candidate tuples by hash probe
// (preferred: exact keys) or bounded range probe.
func (u *Update) probeCandidates(env ExecEnv) ([]relation.Tuple, bool, error) {
	if len(u.eqCols) > 0 {
		if pe, ok := env.(ProbeEnv); ok {
			if idx, _, ok := pe.IndexFor(u.Rel, AuxCur, u.eqCols); ok {
				out, err := pe.Probe(u.Rel, AuxCur, idx, probeVals(idx, u.eqCols, u.eqVals))
				return out, err == nil, err
			}
		}
	}
	if len(u.ranges) == 0 {
		return nil, false, nil
	}
	pe, ok := env.(RangeProbeEnv)
	if !ok {
		return nil, false, nil
	}
	return rangeProbeCandidates(pe, u.Rel, AuxCur, u.eqCols, u.eqVals, u.ranges)
}

func (u *Update) String() string {
	sets := make([]string, len(u.Sets))
	for i, s := range u.Sets {
		sets[i] = fmt.Sprintf("%s = %s", s.Attr, s.Expr)
	}
	if u.Where == nil {
		return fmt.Sprintf("update(%s, true, [%s])", u.Rel, strings.Join(sets, ", "))
	}
	return fmt.Sprintf("update(%s, %s, [%s])", u.Rel, u.Where, strings.Join(sets, ", "))
}

// Alarm is the statement of Definition 5.1: it aborts the enclosing
// transaction (by returning a *ViolationError) when its expression is
// non-empty, and does nothing otherwise.
type Alarm struct {
	Expr       Expr
	Constraint string // the constraint this alarm enforces, for diagnostics
}

// TypeCheck implements Stmt.
func (a *Alarm) TypeCheck(env *TypeEnv) error {
	_, err := a.Expr.TypeCheck(env)
	return err
}

// Exec implements Stmt.
func (a *Alarm) Exec(env ExecEnv) error {
	r, err := a.Expr.Eval(env)
	if err != nil {
		return err
	}
	if !r.IsEmpty() {
		return &ViolationError{Constraint: a.Constraint, Witnesses: r.Len()}
	}
	return nil
}

func (a *Alarm) String() string { return fmt.Sprintf("alarm(%s)", a.Expr) }

// Abort unconditionally aborts the transaction; it is the translation of the
// rule action "abort" when a rule's condition has already been folded into
// an alarm.
type Abort struct {
	Constraint string
}

// TypeCheck implements Stmt.
func (a *Abort) TypeCheck(*TypeEnv) error { return nil }

// Exec implements Stmt.
func (a *Abort) Exec(ExecEnv) error {
	return &ViolationError{Constraint: a.Constraint}
}

func (a *Abort) String() string { return "abort" }
