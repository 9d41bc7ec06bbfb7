// Package views implements materialized view maintenance through
// transaction modification — the application beyond integrity control the
// paper's conclusions point at ("transaction modification can be used for
// purposes other than integrity control as well, like materialized view
// maintenance [8]").
//
// A materialized view is a stored relation defined by an algebra expression
// over base relations. The maintenance program is attached to the rule
// catalog as a non-triggering integrity program whose trigger set is derived
// from the relations the definition reads: any transaction that updates a
// source relation gets the maintenance statements appended by the ordinary
// modification algorithm, so the view is consistent at every transaction
// boundary — exactly the guarantee integrity enforcement receives.
//
// Two maintenance strategies are provided:
//
//   - recompute: delete the view contents and re-evaluate the definition
//     (always applicable);
//   - incremental: delete(V, Δ⁻E); insert(V, Δ⁺E), with the terms of both
//     deltas taken from the same derivation the enforcement checks use
//     (algebra.ViewDelta). It applies to trees of selections, renames and
//     joins over base relations; Δ⁻ reads old(·) for the unchanged input of
//     a join.
//
// Projections, unions and every other definition fall back to recompute:
// views are sets and keep no multiplicities, so a tuple whose witness a
// delete removes may still have another witness, and only re-evaluation can
// tell.
package views

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/trigger"
)

// Strategy selects how a view is maintained.
type Strategy uint8

// Maintenance strategies.
const (
	// Recompute re-evaluates the definition from scratch on every
	// triggering transaction.
	Recompute Strategy = iota
	// Incremental applies the definition to the transaction's deltas; it
	// falls back to Recompute when the definition is not delta-closed.
	Incremental
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Incremental {
		return "incremental"
	}
	return "recompute"
}

// View is a materialized view definition.
type View struct {
	Name       string
	Definition algebra.Expr
	Strategy   Strategy

	schema      *schema.Relation
	incremental bool
}

// Schema returns the view's output schema (available after Define).
func (v *View) Schema() *schema.Relation { return v.schema }

// IsIncremental reports whether the compiled maintenance program uses
// delta-based statements.
func (v *View) IsIncremental() bool { return v.incremental }

// Define compiles a materialized view against the database schema, registers
// the view's backing relation in the schema, and installs the maintenance
// program into the catalog. The caller must also create the backing relation
// instance in its store (the facade does both). existingViews names the
// already-defined views: definitions may read base relations only — stacking
// views would require maintenance-order analysis the subsystem does not do.
func Define(v *View, db *schema.Database, cat *rules.Catalog, existingViews map[string]bool) (*schema.Relation, error) {
	if v.Name == "" {
		return nil, fmt.Errorf("views: view must have a name")
	}
	if _, exists := db.Relation(v.Name); exists {
		return nil, fmt.Errorf("views: relation %q already exists", v.Name)
	}
	for tr := range sourceTriggers(v.Definition) {
		if existingViews[tr.Rel] {
			return nil, fmt.Errorf("views: view %s reads view %s; views over views are not supported", v.Name, tr.Rel)
		}
	}
	def := algebra.CloneExpr(v.Definition)
	tenv := algebra.NewTypeEnv(db)
	out, err := def.TypeCheck(tenv)
	if err != nil {
		return nil, fmt.Errorf("views: view %s: %w", v.Name, err)
	}
	backing := out.Clone(v.Name)
	if err := db.Add(backing); err != nil {
		return nil, err
	}
	v.schema = backing

	triggers := sourceTriggers(v.Definition)
	if triggers.IsEmpty() {
		db.Remove(v.Name)
		return nil, fmt.Errorf("views: view %s reads no base relations", v.Name)
	}

	prog, incremental := v.maintenanceProgram()
	v.incremental = incremental
	tenv2 := algebra.NewTypeEnv(db)
	if err := prog.TypeCheck(tenv2); err != nil {
		db.Remove(v.Name)
		return nil, fmt.Errorf("views: view %s: maintenance program: %w", v.Name, err)
	}

	ip := &rules.IntegrityProgram{
		RuleName:      "view:" + v.Name,
		Triggers:      triggers,
		Full:          prog,
		NonTriggering: true, // writes only the backing relation
	}
	if err := cat.AddProgram(ip); err != nil {
		db.Remove(v.Name)
		return nil, err
	}
	return backing, nil
}

// maintenanceProgram returns the view's maintenance program and whether
// it is incremental: delete(view, t) per term t of Δ⁻E, then
// insert(view, t) per term of Δ⁺E, when the strategy asks for it and E has
// exact deltas; otherwise delete(view, view); insert(view, E).
func (v *View) maintenanceProgram() (algebra.Program, bool) {
	if v.Strategy == Incremental {
		if del, ins, ok := algebra.ViewDelta(v.Definition); ok {
			prog := make(algebra.Program, 0, len(del)+len(ins))
			for _, t := range del {
				prog = append(prog, &algebra.Delete{Rel: v.Name, Src: t.Expr})
			}
			for _, t := range ins {
				prog = append(prog, &algebra.Insert{Rel: v.Name, Src: t.Expr})
			}
			return prog, true
		}
	}
	return algebra.Program{
		&algebra.Delete{Rel: v.Name, Src: algebra.NewRel(v.Name)},
		&algebra.Insert{Rel: v.Name, Src: algebra.CloneExpr(v.Definition)},
	}, false
}

// sourceTriggers derives the trigger set of a view definition: INS and DEL
// of every base relation it reads in its current incarnation.
func sourceTriggers(e algebra.Expr) trigger.Set {
	out := trigger.NewSet()
	algebra.Rels(e, func(r *algebra.Rel) {
		if r.Aux == algebra.AuxCur {
			out.Add(trigger.Trigger{Update: trigger.INS, Rel: r.Name})
			out.Add(trigger.Trigger{Update: trigger.DEL, Rel: r.Name})
		}
	})
	return out
}
