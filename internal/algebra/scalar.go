// Package algebra implements the extended relational algebra of the paper
// (Section 2.2): relational expressions, scalar expressions used inside
// selections/projections/join predicates, and the statement forms
// (assignment, insert, delete, update, alarm, abort) that make up extended
// relational algebra programs.
package algebra

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// Scalar is a scalar expression evaluated against one input tuple (for
// selections and projections) or against the concatenation of two tuples
// (for join predicates). Scalars must be bound against an input schema via
// Bind before evaluation.
type Scalar interface {
	// Bind resolves attribute names to positions in the input schema and
	// returns the expression's result kind.
	Bind(in *schema.Relation) (value.Kind, error)
	// Eval computes the scalar over the input tuple.
	Eval(t []value.Value) (value.Value, error)
	// String renders the expression in the textual algebra syntax.
	String() string
}

// Const is a literal scalar value.
type Const struct {
	V value.Value
}

// Bind implements Scalar.
func (c *Const) Bind(*schema.Relation) (value.Kind, error) { return c.V.Kind(), nil }

// Eval implements Scalar.
func (c *Const) Eval([]value.Value) (value.Value, error) { return c.V, nil }

func (c *Const) String() string { return c.V.String() }

// Attr references an input attribute, either by name (resolved at Bind time)
// or directly by zero-based Index. After binding, Index is authoritative.
type Attr struct {
	Name  string // optional; resolved against the input schema
	Index int    // zero-based; -1 until bound when Name is set
	kind  value.Kind
}

// AttrByName returns an unbound attribute reference by name.
func AttrByName(name string) *Attr { return &Attr{Name: name, Index: -1} }

// AttrByIndex returns an attribute reference by zero-based position.
func AttrByIndex(i int) *Attr { return &Attr{Index: i} }

// Bind implements Scalar.
func (a *Attr) Bind(in *schema.Relation) (value.Kind, error) {
	if a.Name != "" {
		idx := in.AttrIndex(a.Name)
		if idx < 0 {
			return 0, fmt.Errorf("algebra: unknown attribute %q in %s", a.Name, in)
		}
		a.Index = idx
	}
	if a.Index < 0 || a.Index >= in.Arity() {
		return 0, fmt.Errorf("algebra: attribute index #%d out of range for %s", a.Index+1, in)
	}
	a.kind = in.Attrs[a.Index].Type
	if a.Name == "" {
		a.Name = in.Attrs[a.Index].Name
	}
	return a.kind, nil
}

// Eval implements Scalar.
func (a *Attr) Eval(t []value.Value) (value.Value, error) {
	if a.Index < 0 || a.Index >= len(t) {
		return value.Null(), fmt.Errorf("algebra: attribute #%d out of range for tuple of arity %d", a.Index+1, len(t))
	}
	return t[a.Index], nil
}

func (a *Attr) String() string {
	if a.Name != "" {
		return a.Name
	}
	return fmt.Sprintf("#%d", a.Index+1)
}

// Arith is a binary arithmetic expression from the paper's FV = {+,-,*,/}.
type Arith struct {
	Op   value.ArithOp
	L, R Scalar
}

// Bind implements Scalar.
func (a *Arith) Bind(in *schema.Relation) (value.Kind, error) {
	lk, err := a.L.Bind(in)
	if err != nil {
		return 0, err
	}
	rk, err := a.R.Bind(in)
	if err != nil {
		return 0, err
	}
	numeric := func(k value.Kind) bool {
		return k == value.KindInt || k == value.KindFloat || k == value.KindNull
	}
	if !numeric(lk) || !numeric(rk) {
		return 0, fmt.Errorf("algebra: arithmetic %s over %s and %s", a.Op, lk, rk)
	}
	if lk == value.KindFloat || rk == value.KindFloat || a.Op == value.OpDiv {
		return value.KindFloat, nil
	}
	return value.KindInt, nil
}

// Eval implements Scalar.
func (a *Arith) Eval(t []value.Value) (value.Value, error) {
	l, err := a.L.Eval(t)
	if err != nil {
		return value.Null(), err
	}
	r, err := a.R.Eval(t)
	if err != nil {
		return value.Null(), err
	}
	return value.Arith(a.Op, l, r)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", operand(a.L), a.Op, operand(a.R))
}

// operand renders x as an operand of arithmetic or a comparison, where a
// comparison or a negation must be parenthesised to parse back as the same
// tree.
func operand(x Scalar) string {
	switch x.(type) {
	case *Cmp, *Not:
		return "(" + x.String() + ")"
	}
	return x.String()
}

// CmpOp enumerates the value predicate symbols PV = {<, <=, =, <>, >=, >}.
type CmpOp uint8

// Comparison operators.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpEQ
	CmpNE
	CmpGE
	CmpGT
)

// String returns the textual operator.
func (op CmpOp) String() string {
	switch op {
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpGE:
		return ">="
	case CmpGT:
		return ">"
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Negate returns the complementary comparison (e.g. < becomes >=). It is
// used when translating negated constraint conditions into selections.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpGE:
		return CmpLT
	default:
		return CmpLE
	}
}

// Cmp is a comparison between two scalar expressions. Equality uses value
// identity (null = null holds); ordering comparisons involving null are
// false (two-valued logic, see docs/ARCHITECTURE.md).
type Cmp struct {
	Op   CmpOp
	L, R Scalar
}

// Bind implements Scalar.
func (c *Cmp) Bind(in *schema.Relation) (value.Kind, error) {
	if _, err := c.L.Bind(in); err != nil {
		return 0, err
	}
	if _, err := c.R.Bind(in); err != nil {
		return 0, err
	}
	return value.KindBool, nil
}

// Eval implements Scalar.
func (c *Cmp) Eval(t []value.Value) (value.Value, error) {
	l, err := c.L.Eval(t)
	if err != nil {
		return value.Null(), err
	}
	r, err := c.R.Eval(t)
	if err != nil {
		return value.Null(), err
	}
	switch c.Op {
	case CmpEQ:
		return value.Bool(l.Equal(r)), nil
	case CmpNE:
		return value.Bool(!l.Equal(r)), nil
	}
	if l.IsNull() || r.IsNull() {
		return value.Bool(false), nil
	}
	cr, err := l.Compare(r)
	if err != nil {
		return value.Null(), err
	}
	switch c.Op {
	case CmpLT:
		return value.Bool(cr < 0), nil
	case CmpLE:
		return value.Bool(cr <= 0), nil
	case CmpGE:
		return value.Bool(cr >= 0), nil
	case CmpGT:
		return value.Bool(cr > 0), nil
	default:
		return value.Null(), fmt.Errorf("algebra: unknown comparison %v", c.Op)
	}
}

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", operand(c.L), c.Op, operand(c.R))
}

// And is boolean conjunction with short-circuit evaluation.
type And struct {
	L, R Scalar
}

// Bind implements Scalar.
func (a *And) Bind(in *schema.Relation) (value.Kind, error) { return bindBool(in, a.L, a.R) }

// Eval implements Scalar.
func (a *And) Eval(t []value.Value) (value.Value, error) {
	l, err := evalBool(a.L, t)
	if err != nil {
		return value.Null(), err
	}
	if !l {
		return value.Bool(false), nil
	}
	r, err := evalBool(a.R, t)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(r), nil
}

func (a *And) String() string { return fmt.Sprintf("(%s and %s)", a.L, a.R) }

// Or is boolean disjunction with short-circuit evaluation.
type Or struct {
	L, R Scalar
}

// Bind implements Scalar.
func (o *Or) Bind(in *schema.Relation) (value.Kind, error) { return bindBool(in, o.L, o.R) }

// Eval implements Scalar.
func (o *Or) Eval(t []value.Value) (value.Value, error) {
	l, err := evalBool(o.L, t)
	if err != nil {
		return value.Null(), err
	}
	if l {
		return value.Bool(true), nil
	}
	r, err := evalBool(o.R, t)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(r), nil
}

func (o *Or) String() string { return fmt.Sprintf("(%s or %s)", o.L, o.R) }

// Not is boolean negation.
type Not struct {
	X Scalar
}

// Bind implements Scalar.
func (n *Not) Bind(in *schema.Relation) (value.Kind, error) { return bindBool(in, n.X) }

// Eval implements Scalar.
func (n *Not) Eval(t []value.Value) (value.Value, error) {
	x, err := evalBool(n.X, t)
	if err != nil {
		return value.Null(), err
	}
	return value.Bool(!x), nil
}

func (n *Not) String() string { return fmt.Sprintf("not (%s)", n.X) }

// TrueScalar returns a constant-true predicate.
func TrueScalar() Scalar { return &Const{V: value.Bool(true)} }

func bindBool(in *schema.Relation, xs ...Scalar) (value.Kind, error) {
	for _, x := range xs {
		k, err := x.Bind(in)
		if err != nil {
			return 0, err
		}
		if k != value.KindBool && k != value.KindNull {
			return 0, fmt.Errorf("algebra: boolean operand has kind %s", k)
		}
	}
	return value.KindBool, nil
}

func evalBool(x Scalar, t []value.Value) (bool, error) {
	v, err := x.Eval(t)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != value.KindBool {
		return false, fmt.Errorf("algebra: predicate evaluated to %s, want bool", v.Kind())
	}
	return v.AsBool(), nil
}

// AndAll folds a list of predicates into a conjunction; nil for empty input.
func AndAll(preds ...Scalar) Scalar {
	var out Scalar
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &And{L: out, R: p}
		}
	}
	return out
}

// CloneScalar returns a deep copy of a scalar expression so that compiled
// rule programs can be re-bound against different schemas independently.
func CloneScalar(s Scalar) Scalar {
	switch x := s.(type) {
	case nil:
		return nil
	case *Const:
		return &Const{V: x.V}
	case *Attr:
		return &Attr{Name: x.Name, Index: x.Index, kind: x.kind}
	case *Arith:
		return &Arith{Op: x.Op, L: CloneScalar(x.L), R: CloneScalar(x.R)}
	case *Cmp:
		return &Cmp{Op: x.Op, L: CloneScalar(x.L), R: CloneScalar(x.R)}
	case *And:
		return &And{L: CloneScalar(x.L), R: CloneScalar(x.R)}
	case *Or:
		return &Or{L: CloneScalar(x.L), R: CloneScalar(x.R)}
	case *Not:
		return &Not{X: CloneScalar(x.X)}
	default:
		panic(fmt.Sprintf("algebra: CloneScalar: unknown node %T", s))
	}
}

// scalarList renders a comma-separated scalar list.
func scalarList(xs []Scalar) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, ", ")
}
