package lang

import (
	"fmt"
	"strings"

	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/trigger"
	"repro/internal/value"
)

// ParseRule parses an integrity rule in the RL syntax of Definition 4.7:
//
//	when INS(beer), DEL(brewery)
//	if not forall x (x in beer implies
//	       exists y (y in brewery and x.brewery = y.name))
//	then
//	  temp := diff(project(beer, brewery), project(brewery, name));
//	  insert(brewery, project(temp, #1, null as city, null as country))
//
// The WHEN clause is optional — when omitted the trigger set is generated
// from the condition (Algorithm 5.7). The action is either the keyword
// "abort" or a compensating program, optionally prefixed with
// "nontriggering" to declare it non-triggering (Definition 6.2).
func ParseRule(name, src string, db *schema.Database) (*rules.Rule, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	r := &rules.Rule{Name: name}

	if p.acceptKeyword("when") {
		ts := trigger.NewSet()
		for {
			t, err := p.parseTrigger()
			if err != nil {
				return nil, err
			}
			ts.Add(t)
			if !p.acceptPunct(",") {
				break
			}
		}
		r.Triggers = ts
	}

	if err := p.expectKeyword("if"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("not"); err != nil {
		return nil, err
	}
	cond, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	r.Condition = cond

	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("abort") {
		r.Action = rules.AbortAction()
		if err := p.expectEOF(); err != nil {
			return nil, err
		}
		return r, nil
	}
	nonTriggering := p.acceptKeyword("nontriggering")
	prog, err := p.parseProgram(db, "")
	if err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, p.errf("expected action program or 'abort'")
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	r.Action = rules.CompensateAction(prog, nonTriggering)
	return r, nil
}

// ParseConstraintRule builds the default aborting rule for a bare constraint
// (Section 4: "if integrity control is to be performed in a default way,
// the specification of integrity constraints is sufficient and rules can be
// derived automatically"). The constraint may carry an optional repair
// clause after the formula:
//
//	forall x (x in stock implies x.qty >= 0) on violation clamp
//	forall x (x in order implies exists y (y in customer and x.cust = y.id))
//	    on violation cascade delete
//
// Repair kinds: "cascade delete", "default fill", "clamp". The enforcement
// program then appends the compiled repair before the checks instead of
// alarming outright.
func ParseConstraintRule(name, condition string) (*rules.Rule, error) {
	p, err := newParser(condition)
	if err != nil {
		return nil, err
	}
	cond, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	repair := rules.RepairNone
	if p.acceptKeyword("on") {
		if err := p.expectKeyword("violation"); err != nil {
			return nil, err
		}
		repair, err = p.parseRepairKind()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return &rules.Rule{Name: name, Condition: cond, Action: rules.AbortAction(), Repair: repair}, nil
}

// parseRepairKind parses the strategy of an "on violation" clause.
func (p *parser) parseRepairKind() (rules.RepairKind, error) {
	switch {
	case p.acceptKeyword("cascade"):
		if err := p.expectKeyword("delete"); err != nil {
			return rules.RepairNone, err
		}
		return rules.RepairCascadeDelete, nil
	case p.acceptKeyword("default"):
		if err := p.expectKeyword("fill"); err != nil {
			return rules.RepairNone, err
		}
		return rules.RepairDefaultFill, nil
	case p.acceptKeyword("clamp"):
		return rules.RepairClamp, nil
	case p.acceptKeyword("abort"):
		return rules.RepairNone, nil
	default:
		return rules.RepairNone, p.errf("expected repair kind: cascade delete, default fill, clamp or abort")
	}
}

func (p *parser) parseTrigger() (trigger.Trigger, error) {
	kind, err := p.expectIdent()
	if err != nil {
		return trigger.Trigger{}, err
	}
	var u trigger.UpdateType
	switch strings.ToUpper(kind) {
	case "INS":
		u = trigger.INS
	case "DEL":
		u = trigger.DEL
	default:
		return trigger.Trigger{}, p.errf("trigger type must be INS or DEL, got %q", kind)
	}
	if err := p.expectPunct("("); err != nil {
		return trigger.Trigger{}, err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return trigger.Trigger{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return trigger.Trigger{}, err
	}
	return trigger.Trigger{Update: u, Rel: rel}, nil
}

// ParseRelationSchema parses a DDL declaration:
//
//	relation beer(name string, type string, brewery string, alcohol int)
//
// Types: int, float, string, bool.
func ParseRelationSchema(src string) (*schema.Relation, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("relation"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var attrs []schema.Attribute
	for {
		aname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := parseTypeName(tname)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		attrs = append(attrs, schema.Attribute{Name: aname, Type: kind})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return schema.NewRelation(name, attrs...)
}

func parseTypeName(s string) (value.Kind, error) {
	switch strings.ToLower(s) {
	case "int", "integer":
		return value.KindInt, nil
	case "float", "double", "real":
		return value.KindFloat, nil
	case "string", "text", "varchar":
		return value.KindString, nil
	case "bool", "boolean":
		return value.KindBool, nil
	default:
		return 0, fmt.Errorf("unknown type %q (want int, float, string or bool)", s)
	}
}
