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
// boundary — exactly the guarantee integrity enforcement receives. The
// program is deferred: it is appended once, after every other program the
// transaction triggers, so repairs that rewrite a source run before it.
//
// The definition decides the maintenance program, never the caller. A
// definition with a Δ form — any tree of selections, renames, projections,
// joins, semijoins, antijoins and unions over base relations — is
// maintained by delete(V, Δ⁻E); insert(V, Δ⁺E), with the terms of both
// deltas taken from the same derivation the enforcement checks use
// (algebra.ViewDelta). Δ⁻ reads old(·) for the unchanged inputs. Views are
// sets and keep no multiplicities, so outside σ/rename/⋈ trees a deleted
// witness may leave another behind: there each Δ⁻ term is restricted to
// the tuples the new state no longer produces. A definition with no Δ
// form (aggregates, set difference and intersection) is recomputed:
// delete(V, V); insert(V, E). Either program assumes the view held E(old),
// so only its maintenance program may write the backing relation; the
// facade refuses every other write.
package views

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/trigger"
)

// View is a materialized view definition.
type View struct {
	Name       string
	Definition algebra.Expr
}

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
	triggers := sourceTriggers(v.Definition)
	if triggers.IsEmpty() {
		return nil, fmt.Errorf("views: view %s reads no base relations", v.Name)
	}
	for tr := range triggers {
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

	prog := v.maintenanceProgram(def)
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
		Deferred:      true, // carries the view from E(old) to E(new) once
	}
	if err := cat.AddProgram(ip); err != nil {
		db.Remove(v.Name)
		return nil, err
	}
	return backing, nil
}

// maintenanceProgram returns the view's maintenance program for its
// type-checked definition: delete(view, t) per term t of Δ⁻E, then
// insert(view, t) per term of Δ⁺E; delete(view, view); insert(view, E)
// when E has no Δ form.
func (v *View) maintenanceProgram(def algebra.Expr) algebra.Program {
	del, ins, ok := algebra.ViewDelta(def)
	if !ok {
		return algebra.Program{
			&algebra.Delete{Rel: v.Name, Src: algebra.NewRel(v.Name)},
			&algebra.Insert{Rel: v.Name, Src: algebra.CloneExpr(def)},
		}
	}
	prog := make(algebra.Program, 0, len(del)+len(ins))
	for _, t := range del {
		prog = append(prog, &algebra.Delete{Rel: v.Name, Src: t.Expr})
	}
	for _, t := range ins {
		prog = append(prog, &algebra.Insert{Rel: v.Name, Src: t.Expr})
	}
	return prog
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
