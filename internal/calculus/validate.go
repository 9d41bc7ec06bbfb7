package calculus

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/schema"
	"repro/internal/value"
)

// VarInfo records the inferred typing of one tuple variable: the relation it
// ranges over and that relation's schema.
type VarInfo struct {
	Var    string
	Rel    RelRef
	Schema *schema.Relation
}

// Info is the result of validating a formula: per-variable typing plus the
// relations the formula reads.
type Info struct {
	Vars map[string]*VarInfo
	// Rels lists every relation reference appearing in the formula
	// (membership atoms and aggregate terms), deduplicated and sorted.
	Rels []RelRef
}

// Validate checks that w is a closed, range-restricted CL formula in the
// uniquely-typed-variable fragment the subsystem supports (see
// docs/ARCHITECTURE.md):
//
//   - every tuple variable is introduced by exactly one quantifier and not
//     shadowed;
//   - every variable appears in at least one membership atom, and all of its
//     membership atoms name the same relation (its range);
//   - attribute selections and tuple comparisons type-check against the
//     range relations;
//   - aggregate terms reference existing relations and numeric attributes.
//
// Validate resolves attribute names to indices in place and returns the
// inferred typing.
func Validate(w WFF, db *schema.Database) (*Info, error) {
	info := &Info{Vars: make(map[string]*VarInfo)}
	seenRel := make(map[string]bool)
	addRel := func(r RelRef) {
		k := r.String()
		if !seenRel[k] {
			seenRel[k] = true
			info.Rels = append(info.Rels, r)
		}
	}

	// Pass 1: quantifier structure and membership-based typing.
	quantified := make(map[string]bool)
	var structural func(n WFF, inScope map[string]bool) error
	structural = func(n WFF, inScope map[string]bool) error {
		switch x := n.(type) {
		case *WQuant:
			if x.Var == "" {
				return fmt.Errorf("calculus: quantifier with empty variable")
			}
			if inScope[x.Var] {
				return fmt.Errorf("calculus: variable %q shadows an enclosing quantifier", x.Var)
			}
			if quantified[x.Var] {
				return fmt.Errorf("calculus: variable %q quantified more than once", x.Var)
			}
			quantified[x.Var] = true
			scope := make(map[string]bool, len(inScope)+1)
			for k := range inScope {
				scope[k] = true
			}
			scope[x.Var] = true
			return structural(x.Body, scope)
		case *WNot:
			return structural(x.X, inScope)
		case *WAnd:
			if err := structural(x.L, inScope); err != nil {
				return err
			}
			return structural(x.R, inScope)
		case *WOr:
			if err := structural(x.L, inScope); err != nil {
				return err
			}
			return structural(x.R, inScope)
		case *WImplies:
			if err := structural(x.L, inScope); err != nil {
				return err
			}
			return structural(x.R, inScope)
		case *WAtom:
			return validateAtomScope(x.A, inScope)
		default:
			return fmt.Errorf("calculus: unknown formula node %T", n)
		}
	}
	if err := structural(w, map[string]bool{}); err != nil {
		return nil, err
	}

	// Pass 2: collect membership atoms to type each variable.
	var memberErr error
	Walk(w, func(n WFF) bool {
		at, ok := n.(*WAtom)
		if !ok {
			return true
		}
		m, ok := at.A.(*AMember)
		if !ok {
			return true
		}
		rs, ok := db.Relation(m.Rel.Name)
		if !ok {
			memberErr = fmt.Errorf("calculus: unknown relation %q", m.Rel.Name)
			return false
		}
		addRel(m.Rel)
		vi, exists := info.Vars[m.Var]
		if !exists {
			info.Vars[m.Var] = &VarInfo{Var: m.Var, Rel: m.Rel, Schema: rs}
			return true
		}
		if vi.Rel != m.Rel {
			memberErr = fmt.Errorf("calculus: variable %q ranges over both %s and %s; the supported fragment requires a unique range relation per variable",
				m.Var, vi.Rel, m.Rel)
			return false
		}
		return true
	})
	if memberErr != nil {
		return nil, memberErr
	}
	for v := range quantified {
		if _, ok := info.Vars[v]; !ok {
			return nil, fmt.Errorf("calculus: variable %q has no membership atom; formula is not range-restricted", v)
		}
	}

	// Pass 3: resolve and type-check terms and tuple comparisons.
	var typeErr error
	resolveAttr := func(t *TAttr) error {
		vi, ok := info.Vars[t.Var]
		if !ok {
			return fmt.Errorf("calculus: attribute selection on unquantified variable %q", t.Var)
		}
		if t.Name != "" {
			idx := vi.Schema.AttrIndex(t.Name)
			if idx < 0 {
				return fmt.Errorf("calculus: relation %s has no attribute %q", vi.Schema.Name, t.Name)
			}
			t.Index = idx
		}
		if t.Index < 0 || t.Index >= vi.Schema.Arity() {
			return fmt.Errorf("calculus: attribute #%d out of range for %s", t.Index+1, vi.Schema)
		}
		if t.Name == "" {
			t.Name = vi.Schema.Attrs[t.Index].Name
		}
		return nil
	}
	resolveAggr := func(t *TAggr) error {
		rs, ok := db.Relation(t.Rel.Name)
		if !ok {
			return fmt.Errorf("calculus: unknown relation %q in aggregate", t.Rel.Name)
		}
		addRel(t.Rel)
		if t.Func == algebra.AggCnt {
			return nil
		}
		if t.Name != "" {
			idx := rs.AttrIndex(t.Name)
			if idx < 0 {
				return fmt.Errorf("calculus: relation %s has no attribute %q", rs.Name, t.Name)
			}
			t.Index = idx
		}
		if t.Index < 0 || t.Index >= rs.Arity() {
			return fmt.Errorf("calculus: attribute #%d out of range for %s", t.Index+1, rs)
		}
		k := rs.Attrs[t.Index].Type
		if k != value.KindInt && k != value.KindFloat && k != value.KindNull {
			return fmt.Errorf("calculus: %s over non-numeric attribute %s.%s", t.Func, rs.Name, rs.Attrs[t.Index].Name)
		}
		if t.Name == "" {
			t.Name = rs.Attrs[t.Index].Name
		}
		return nil
	}
	WalkTerms(w, func(t Term) {
		if typeErr != nil {
			return
		}
		switch x := t.(type) {
		case *TAttr:
			typeErr = resolveAttr(x)
		case *TAggr:
			typeErr = resolveAggr(x)
		}
	})
	if typeErr != nil {
		return nil, typeErr
	}
	Walk(w, func(n WFF) bool {
		if typeErr != nil {
			return false
		}
		at, ok := n.(*WAtom)
		if !ok {
			return true
		}
		if eq, ok := at.A.(*ATupleEq); ok {
			xi, xok := info.Vars[eq.X]
			yi, yok := info.Vars[eq.Y]
			switch {
			case !xok:
				typeErr = fmt.Errorf("calculus: tuple comparison on unquantified variable %q", eq.X)
			case !yok:
				typeErr = fmt.Errorf("calculus: tuple comparison on unquantified variable %q", eq.Y)
			case !xi.Schema.SameType(yi.Schema):
				typeErr = fmt.Errorf("calculus: tuple comparison %s == %s over incompatible schemas", eq.X, eq.Y)
			}
		}
		return true
	})
	if typeErr != nil {
		return nil, typeErr
	}
	return info, nil
}

func validateAtomScope(a Atom, inScope map[string]bool) error {
	check := func(v string) error {
		if !inScope[v] {
			return fmt.Errorf("calculus: free variable %q; constraints must be closed formulas", v)
		}
		return nil
	}
	switch x := a.(type) {
	case *AMember:
		return check(x.Var)
	case *ATupleEq:
		if err := check(x.X); err != nil {
			return err
		}
		return check(x.Y)
	case *ACompare:
		var err error
		var scan func(t Term)
		scan = func(t Term) {
			if err != nil {
				return
			}
			switch tt := t.(type) {
			case *TAttr:
				err = check(tt.Var)
			case *TArith:
				scan(tt.L)
				scan(tt.R)
			}
		}
		scan(x.L)
		scan(x.R)
		return err
	default:
		return fmt.Errorf("calculus: unknown atom %T", a)
	}
}
