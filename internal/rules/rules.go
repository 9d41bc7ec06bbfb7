// Package rules implements integrity rules (the RL language of Definition
// 4.7), their compilation into integrity programs (Definition 6.3,
// Algorithm 6.1: GetIntP = (triggers, TransR(OptR(J)))), and the rule
// catalog a transaction modification subsystem works from.
package rules

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/optimize"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/trigger"
)

// Action is a rule's violation response: either the aborting default or a
// compensating extended relational algebra program. A compensating action
// may be declared non-triggering (Definition 6.2) to break triggering
// cycles; its author then guarantees it cannot re-violate any rule.
type Action struct {
	Abort         bool
	Program       algebra.Program
	NonTriggering bool
}

// AbortAction returns the aborting violation response.
func AbortAction() Action { return Action{Abort: true} }

// CompensateAction returns a compensating violation response.
func CompensateAction(p algebra.Program, nonTriggering bool) Action {
	return Action{Program: p, NonTriggering: nonTriggering}
}

// Rule is an integrity rule: WHEN triggers IF NOT condition THEN action.
// When Triggers is nil the trigger set is generated from the condition
// (Algorithm 5.7), which the paper recommends as less error-prone.
type Rule struct {
	Name      string
	Triggers  trigger.Set
	Condition calculus.WFF
	Action    Action
	// Repair selects a declarative repair strategy for an aborting rule:
	// instead of alarming immediately, the enforcement program first appends
	// the compiled repair statements, then the checks, so the transaction is
	// modified into one that satisfies the constraint (and still aborts when
	// the repair is insufficient).
	Repair RepairKind

	info *calculus.Info
}

// Info returns the condition's validation result (available after the rule
// is added to a catalog).
func (r *Rule) Info() *calculus.Info { return r.info }

// String renders the rule in RL syntax.
func (r *Rule) String() string {
	action := "abort"
	if !r.Action.Abort {
		action = "\n" + r.Action.Program.String()
	}
	return fmt.Sprintf("WHEN %s\nIF NOT %s\nTHEN %s", r.Triggers, r.Condition, action)
}

// IntegrityProgram is the compiled form of a rule (Definition 6.3): a
// trigger set plus the translated enforcement program, stored at rule
// definition time so constraint enforcement does not re-translate
// (Section 6.2). Both the full-state program and — when derivable — the
// differential program are kept, so the subsystem can choose per its
// configuration.
type IntegrityProgram struct {
	RuleName      string
	Triggers      trigger.Set
	Full          algebra.Program
	Differential  algebra.Program // nil when no part could be incrementalized
	NonTriggering bool
	// Deferred marks view maintenance: the subsystem appends the program
	// once, at the end of the modified transaction, when any level raises
	// one of its triggers. Its delta form carries the view from the
	// pre-transaction state to the final one, so no later statement may
	// change a source after it, and applying it twice would keep tuples a
	// later level removed again.
	Deferred bool
	Classes  []translate.Class
	// IndexHints are the secondary indexes the rule's differential checks
	// and repair probe (translate.IndexHints); the facade builds them when
	// automatic indexing is enabled.
	IndexHints []translate.IndexHint
	// Plans holds the per-part compiled check programs (full + one per Δ
	// term) together with the translated parts, so the transaction
	// modification subsystem can run the static safety analyzer per part and
	// assemble only the checks a transaction shape requires. Nil for
	// compensating rules and externally added programs (they are opaque).
	Plans []*optimize.PartPlan
	// Repair is the compiled repair action, nil for abort-only rules.
	Repair *Repair
	// Raises holds the triggers the program's action can raise when the
	// subsystem appends it: the repair's triggers, or GetTrigPX of a
	// compensating action (Definition 6.2). Alarm-only and view programs
	// raise none. Selects reads it.
	Raises trigger.Set
}

// Selects reports whether appending from's enforcement program selects to at
// the next modification level: an edge of the triggering graph (Definition
// 6.1). It holds when from raises one of to's triggers, except that a rule's
// own repair never re-selects it: the repair is a complete fix by
// construction, and the rule's checks already run after it.
func Selects(from, to *IntegrityProgram) bool {
	return from.Raises.Intersects(to.Triggers) && (from != to || from.Repair == nil)
}

// Program returns the enforcement program for the requested strategy,
// falling back to the full-state program when no differential form exists.
func (ip *IntegrityProgram) Program(useDifferential bool) algebra.Program {
	if useDifferential && ip.Differential != nil {
		return ip.Differential
	}
	return ip.Full
}

// Compile validates, optimizes and translates a rule into an integrity
// program against the given database schema (Algorithm 6.1).
func Compile(r *Rule, db *schema.Database) (*IntegrityProgram, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("rules: rule must have a name")
	}
	if r.Condition == nil {
		return nil, fmt.Errorf("rules: rule %s: missing condition", r.Name)
	}
	cond := optimize.SimplifyCondition(r.Condition)
	info, err := calculus.Validate(cond, db)
	if err != nil {
		return nil, fmt.Errorf("rules: rule %s: %w", r.Name, err)
	}
	r.info = info
	r.Condition = cond

	if r.Triggers == nil {
		r.Triggers = trigger.GenTrigC(cond)
	}
	if r.Triggers.IsEmpty() {
		return nil, fmt.Errorf("rules: rule %s: empty trigger set; the rule would never fire", r.Name)
	}

	ip := &IntegrityProgram{
		RuleName:      r.Name,
		Triggers:      r.Triggers.Clone(),
		NonTriggering: r.Action.NonTriggering,
	}

	if r.Action.Abort {
		// TransR for an aborting rule: translate the condition to alarms.
		res, err := translate.Condition(cond, info, db, r.Name)
		if err != nil {
			return nil, fmt.Errorf("rules: rule %s: %w", r.Name, err)
		}
		ip.Full = res.Program
		for _, p := range res.Parts {
			ip.Classes = append(ip.Classes, p.Class)
		}
		plans, improved := optimize.CompileParts(res.Parts, db, r.Name)
		ip.Plans = plans
		// The programs the default engine can run for this rule: each part's
		// Δ term checks (its full check when it has none), then the repair.
		// Their probes, and only theirs, are worth an index.
		run := make([]algebra.Program, 0, len(plans)+1)
		for _, pl := range plans {
			run = append(run, pl.Differential())
		}
		if improved {
			var diff algebra.Program
			for _, prog := range run {
				diff = diff.Concat(prog)
			}
			ip.Differential = diff
		}
		if r.Repair != RepairNone {
			rep, err := compileRepair(r.Repair, r.Name, res.Parts, db)
			if err != nil {
				return nil, err
			}
			ip.Repair = rep
			ip.Raises = trigger.FromProgram(rep.Program)
			run = append(run, rep.Program)
		}
		ip.IndexHints = translate.IndexHints(run, db)
		return ip, nil
	}
	if r.Repair != RepairNone {
		return nil, fmt.Errorf("rules: rule %s: repair clauses apply to aborting rules only", r.Name)
	}

	// TransR for a compensating rule: in the practical case the paper
	// singles out (TransCA), the enforcement program is the violation
	// response action itself — the action is assumed to exactly compensate
	// and be a no-op on consistent states.
	if len(r.Action.Program) == 0 {
		return nil, fmt.Errorf("rules: rule %s: compensating rule with empty action", r.Name)
	}
	prog := algebra.CloneProgram(r.Action.Program)
	tenv := algebra.NewTypeEnv(db)
	if err := prog.TypeCheck(tenv); err != nil {
		return nil, fmt.Errorf("rules: rule %s: action: %w", r.Name, err)
	}
	ip.Full = prog
	ip.Raises = trigger.FromProgramX(prog, r.Action.NonTriggering)
	return ip, nil
}

// Catalog stores the rules defined on a database schema together with their
// compiled integrity programs, in definition order (the paper interprets the
// program set as a list by imposing an arbitrary order; we make it the
// definition order for determinism). The program list is replaced, never
// changed in place, so a slice Programs returned stays valid.
type Catalog struct {
	db       *schema.Database
	rules    map[string]*Rule
	programs []*IntegrityProgram
}

// NewCatalog returns an empty catalog over the database schema.
func NewCatalog(db *schema.Database) *Catalog {
	return &Catalog{db: db, rules: make(map[string]*Rule)}
}

// Schema returns the database schema the catalog compiles against.
func (c *Catalog) Schema() *schema.Database { return c.db }

// Add compiles and registers a rule. Rule names must be unique.
func (c *Catalog) Add(r *Rule) error {
	if _, dup := c.Program(r.Name); dup {
		return fmt.Errorf("rules: duplicate rule %q", r.Name)
	}
	ip, err := Compile(r, c.db)
	if err != nil {
		return err
	}
	c.rules[r.Name] = r
	c.programs = append(c.programs[:len(c.programs):len(c.programs)], ip)
	return nil
}

// AddProgram registers an externally compiled integrity program — the hook
// the materialized-view subsystem uses to attach maintenance programs to
// transaction modification. Program names share the rule namespace.
func (c *Catalog) AddProgram(ip *IntegrityProgram) error {
	if ip.RuleName == "" {
		return fmt.Errorf("rules: integrity program must have a name")
	}
	if _, dup := c.Program(ip.RuleName); dup {
		return fmt.Errorf("rules: duplicate rule %q", ip.RuleName)
	}
	if ip.Triggers.IsEmpty() {
		return fmt.Errorf("rules: integrity program %s has an empty trigger set", ip.RuleName)
	}
	c.programs = append(c.programs[:len(c.programs):len(c.programs)], ip)
	return nil
}

// Remove drops a rule or externally added program by name.
func (c *Catalog) Remove(name string) error {
	for i, ip := range c.programs {
		if ip.RuleName == name {
			delete(c.rules, name)
			c.programs = append(c.programs[:i:i], c.programs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("rules: unknown rule %q", name)
}

// Rule returns a rule by name.
func (c *Catalog) Rule(name string) (*Rule, bool) {
	r, ok := c.rules[name]
	return r, ok
}

// Program returns the compiled integrity program of a rule.
func (c *Catalog) Program(name string) (*IntegrityProgram, bool) {
	for _, ip := range c.programs {
		if ip.RuleName == name {
			return ip, true
		}
	}
	return nil, false
}

// Programs returns all integrity programs in definition order. The slice is
// the catalog's own and must not be modified; a later definition replaces
// it rather than changing it.
func (c *Catalog) Programs() []*IntegrityProgram { return c.programs }

// Rules returns all rules in definition order. Externally added integrity
// programs (e.g. view maintenance) have no rule and are skipped.
func (c *Catalog) Rules() []*Rule {
	out := make([]*Rule, 0, len(c.rules))
	for _, ip := range c.programs {
		if r, ok := c.rules[ip.RuleName]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Names returns the rule names in sorted order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.programs))
	for i, ip := range c.programs {
		out[i] = ip.RuleName
	}
	sort.Strings(out)
	return out
}

// Len returns the number of rules.
func (c *Catalog) Len() int { return len(c.rules) }
