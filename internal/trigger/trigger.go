// Package trigger implements trigger specifications and trigger sets
// (Definitions 4.5-4.6), their extraction from extended relational algebra
// programs (function GetTrigP of Algorithm 5.2, and the non-triggering
// variant GetTrigPX of Definition 6.2), and the automatic generation of a
// rule's trigger set from its CL condition (function GenTrigC of
// Algorithm 5.7).
package trigger

import (
	"sort"
	"strings"

	"repro/internal/algebra"
)

// UpdateType is an elementary update type U ∈ {INS, DEL}. Updates are
// modelled as a delete plus an insert (Definition 4.5).
type UpdateType uint8

// Elementary update types.
const (
	INS UpdateType = iota
	DEL
)

// String returns "INS" or "DEL".
func (u UpdateType) String() string {
	if u == INS {
		return "INS"
	}
	return "DEL"
}

// Trigger is one trigger specification U(R).
type Trigger struct {
	Update UpdateType
	Rel    string
}

// String renders "INS(rel)" / "DEL(rel)".
func (t Trigger) String() string { return t.Update.String() + "(" + t.Rel + ")" }

// Set is a trigger set specification: a set of U(R) pairs.
type Set map[Trigger]struct{}

// NewSet builds a set from the given triggers.
func NewSet(ts ...Trigger) Set {
	s := make(Set, len(ts))
	for _, t := range ts {
		s[t] = struct{}{}
	}
	return s
}

// Add inserts a trigger.
func (s Set) Add(t Trigger) { s[t] = struct{}{} }

// AddAll inserts every trigger of o.
func (s Set) AddAll(o Set) {
	for t := range o {
		s[t] = struct{}{}
	}
}

// Union returns a new set holding s ∪ o.
func (s Set) Union(o Set) Set {
	out := make(Set, len(s)+len(o))
	out.AddAll(s)
	out.AddAll(o)
	return out
}

// Contains reports membership.
func (s Set) Contains(t Trigger) bool {
	_, ok := s[t]
	return ok
}

// Intersects reports whether s ∩ o ≠ ∅ — the rule selection test of
// Algorithm 5.2.
func (s Set) Intersects(o Set) bool {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	for t := range small {
		if _, ok := large[t]; ok {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the set has no triggers.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Sorted returns the triggers in deterministic order (by relation, INS
// before DEL).
func (s Set) Sorted() []Trigger {
	out := make([]Trigger, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Update < out[j].Update
	})
	return out
}

// String renders the set as "INS(a), DEL(b)".
func (s Set) String() string {
	ts := s.Sorted()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	out.AddAll(s)
	return out
}

// FromStatement is the paper's GetTrigS: the triggers an individual
// statement can raise. Insert raises INS, delete raises DEL, update raises
// both; all other statements raise none.
func FromStatement(s algebra.Stmt) Set {
	out := NewSet()
	out.addStatement(s)
	return out
}

// addStatement adds the triggers s raises to the set.
func (s Set) addStatement(st algebra.Stmt) {
	switch x := st.(type) {
	case *algebra.Insert:
		s.Add(Trigger{INS, x.Rel})
	case *algebra.Delete:
		s.Add(Trigger{DEL, x.Rel})
	case *algebra.Update:
		s.Add(Trigger{INS, x.Rel})
		s.Add(Trigger{DEL, x.Rel})
	}
}

// FromProgram is the paper's GetTrigP: the union of the statements' trigger
// sets.
func FromProgram(p algebra.Program) Set {
	out := NewSet()
	for _, st := range p {
		out.addStatement(st)
	}
	return out
}

// FromProgramX is GetTrigPX (Definition 6.2): like FromProgram, but a
// program declared non-triggering contributes no triggers, which is the
// sanctioned way to break cycles in the triggering graph.
func FromProgramX(p algebra.Program, nonTriggering bool) Set {
	if nonTriggering {
		return NewSet()
	}
	return FromProgram(p)
}
