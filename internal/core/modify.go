package core

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/translate"
	"repro/internal/trigger"
	"repro/internal/txn"
)

// DefaultMaxDepth bounds the modification recursion. The paper prevents
// infinite triggering statically via the triggering graph (Section 6.1);
// the depth guard is a defensive backstop so a semantically incorrect rule
// set fails with a diagnostic instead of hanging.
const DefaultMaxDepth = 32

// Options configure a Subsystem.
type Options struct {
	// UseDifferential selects the delta-based enforcement programs derived
	// by the optimizer where available.
	UseDifferential bool
	// Dynamic re-translates rules at each modification instead of using the
	// precompiled integrity programs (Algorithm 5.1 verbatim).
	Dynamic bool
	// Prune runs the static safety analyzer (translate.AnalyzeSafety) per
	// selected rule and appends only the checks the transaction's statement
	// shapes require; a fully safe verdict appends nothing, so the check
	// contributes no read records, probes or conflict surface at all.
	// Effective only together with UseDifferential: the per-term Δ checks
	// are what the analyzer selects among, and full-state checks are
	// what callers fall back on when they bypass the base-consistency
	// invariant pruning shares with the differential rewrite.
	Prune bool
}

// Subsystem is the integrity control subsystem: it holds the rule catalog
// and modifies transactions before execution.
type Subsystem struct {
	cat  *rules.Catalog
	opts Options
}

// New returns a subsystem over the catalog.
func New(cat *rules.Catalog, opts Options) *Subsystem {
	return &Subsystem{cat: cat, opts: opts}
}

// Catalog returns the underlying rule catalog.
func (s *Subsystem) Catalog() *rules.Catalog { return s.cat }

// Step records one level of the modification recursion for reporting.
type Step struct {
	// Triggers raised by the program modified at this level.
	Triggers trigger.Set
	// Rules selected at this level, in catalog order.
	Rules []string
	// Statements appended at this level.
	Statements int
	// ChecksElided counts compiled check programs the safety analyzer
	// proved unnecessary at this level.
	ChecksElided int
	// Repairs counts repair programs appended at this level.
	Repairs int
}

// Report describes what the modification did to a transaction.
type Report struct {
	Depth          int
	Steps          []Step
	OriginalStmts  int
	FinalStmts     int
	RulesTriggered map[string]int // rule name → times selected
	// ChecksElided counts compiled check programs the safety analyzer
	// elided across all levels.
	ChecksElided int
	// ChecksRepaired counts repair programs appended across all levels.
	ChecksRepaired int
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "modification: %d -> %d statements, %d level(s)\n", r.OriginalStmts, r.FinalStmts, r.Depth)
	for i, st := range r.Steps {
		fmt.Fprintf(&sb, "  level %d: triggers {%s} selected [%s] (+%d stmts)",
			i+1, st.Triggers, strings.Join(st.Rules, ", "), st.Statements)
		if st.ChecksElided > 0 {
			fmt.Fprintf(&sb, " (%d checks elided)", st.ChecksElided)
		}
		if st.Repairs > 0 {
			fmt.Fprintf(&sb, " (%d repairs)", st.Repairs)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Modify implements ModT: it debrackets the transaction, recursively extends
// the program with the enforcement programs of triggered rules, and
// rebrackets (Algorithm 5.1). The input transaction is not mutated.
func (s *Subsystem) Modify(t *txn.Transaction) (*txn.Transaction, *Report, error) {
	report := &Report{
		OriginalStmts:  len(t.Program),
		RulesTriggered: make(map[string]int),
	}
	prog, err := s.modP(t.Debracket(), 0, report)
	if err != nil {
		return nil, nil, err
	}
	report.FinalStmts = len(prog)
	out := txn.Bracket(prog)
	out.Label = t.Label
	return out, report, nil
}

// modP implements ModP: P if nothing is triggered, else P ⊕ ModP(TrigP(P)).
func (s *Subsystem) modP(p algebra.Program, depth int, report *Report) (algebra.Program, error) {
	if depth >= DefaultMaxDepth {
		return nil, fmt.Errorf("core: modification exceeded depth %d; the rule set has a triggering cycle (see the triggering graph analysis in package graph)", DefaultMaxDepth)
	}
	triggered, step, err := s.trigP(p)
	if err != nil {
		return nil, err
	}
	if len(step.Rules) == 0 {
		return p, nil
	}
	report.Depth = depth + 1
	report.Steps = append(report.Steps, step)
	report.ChecksElided += step.ChecksElided
	report.ChecksRepaired += step.Repairs
	for _, name := range step.Rules {
		report.RulesTriggered[name]++
	}
	if len(triggered) == 0 {
		// Every selected rule's checks were proven unnecessary: nothing was
		// appended, so the recursion ends here.
		return p, nil
	}
	rest, err := s.modP(triggered, depth+1, report)
	if err != nil {
		return nil, err
	}
	return p.Concat(rest), nil
}

// trigP implements TrigP: the concatenation of the enforcement programs of
// the rules whose trigger sets intersect the program's triggers
// (SelPS/ConcatP of Algorithm 6.2, or SelRS/TrOptRS of Algorithms 5.2-5.3 in
// dynamic mode). A rule is never selected by its own repair statements: the
// repair is a complete fix for the rule's constraint by construction, and
// the rule's checks already run after it within the same enforcement
// program, so re-selecting would loop without adding enforcement.
func (s *Subsystem) trigP(p algebra.Program) (algebra.Program, Step, error) {
	raised, byOrigin := s.programTriggers(p)
	step := Step{Triggers: raised}
	if raised.IsEmpty() {
		return nil, step, nil
	}
	analysis := unwrapStmts(p)
	var out algebra.Program
	for _, ip := range s.cat.Programs() {
		sel := raised
		if _, isOrigin := byOrigin[ip.RuleName]; isOrigin {
			sel = s.triggersExcludingOrigin(p, ip.RuleName)
		}
		if !ip.Triggers.Intersects(sel) {
			continue
		}
		enforcement, elided, repairs, err := s.enforcementProgram(ip, analysis)
		if err != nil {
			return nil, step, err
		}
		step.Rules = append(step.Rules, ip.RuleName)
		step.Statements += len(enforcement)
		step.ChecksElided += elided
		step.Repairs += repairs
		out = out.Concat(enforcement)
	}
	return out, step, nil
}

// programTriggers computes GetTrigPX over a program: statements belonging to
// a non-triggering rule action raise no triggers. Non-triggering actions are
// recognized per enforcement-program instance via the nonTriggering marker
// statements are tagged with when cloned in enforcementProgram. The second
// result maps repair origins present in the program to their raised
// triggers, so selection can exclude a rule's own repair statements.
func (s *Subsystem) programTriggers(p algebra.Program) (trigger.Set, map[string]trigger.Set) {
	out := trigger.NewSet()
	var byOrigin map[string]trigger.Set
	for _, st := range p {
		if _, ok := st.(*nonTriggeringStmt); ok {
			continue // declared non-triggering: contributes nothing
		}
		ts := trigger.FromStatement(unwrapStmt(st))
		if rs, ok := st.(*repairStmt); ok {
			if byOrigin == nil {
				byOrigin = make(map[string]trigger.Set)
			}
			if cur, ok := byOrigin[rs.origin]; ok {
				byOrigin[rs.origin] = cur.Union(ts)
			} else {
				byOrigin[rs.origin] = ts
			}
		}
		out.AddAll(ts)
	}
	return out, byOrigin
}

// triggersExcludingOrigin recomputes the raised trigger set skipping repair
// statements tagged with the given origin (and non-triggering statements,
// as always).
func (s *Subsystem) triggersExcludingOrigin(p algebra.Program, origin string) trigger.Set {
	out := trigger.NewSet()
	for _, st := range p {
		if _, ok := st.(*nonTriggeringStmt); ok {
			continue
		}
		if rs, ok := st.(*repairStmt); ok && rs.origin == origin {
			continue
		}
		out.AddAll(trigger.FromStatement(unwrapStmt(st)))
	}
	return out
}

// enforcementProgram returns a fresh copy of the rule's enforcement program
// — repair statements first (tagged with their origin), checks after them —
// re-translating when the subsystem operates dynamically. With pruning
// active, the safety analyzer scores the level's statements against each
// translated part and only the required residual checks are emitted; a rule
// whose parts are all provably safe appends nothing at all (its repair
// would be a no-op too). Returns the program plus the number of elided
// check programs and appended repair programs.
func (s *Subsystem) enforcementProgram(ip *rules.IntegrityProgram, analysis []algebra.Stmt) (algebra.Program, int, int, error) {
	eip := ip
	if r, ok := s.cat.Rule(ip.RuleName); s.opts.Dynamic && ok {
		// Externally added programs (no rule, e.g. view maintenance) have
		// nothing to re-translate and use the stored form even in dynamic
		// mode.
		fresh, err := rules.Compile(&rules.Rule{
			Name:      r.Name,
			Triggers:  r.Triggers.Clone(),
			Condition: r.Condition,
			Action:    r.Action,
			Repair:    r.Repair,
		}, s.cat.Schema())
		if err != nil {
			return nil, 0, 0, err
		}
		eip = fresh
	}

	var checks algebra.Program
	elided := 0
	if s.opts.Prune && s.opts.UseDifferential && len(eip.Plans) > 0 {
		for _, pl := range eip.Plans {
			need := translate.AnalyzeSafety(pl.Part, pl.Terms, s.cat.Schema(), analysis)
			prog, skipped := pl.ProgramFor(need)
			elided += skipped
			checks = checks.Concat(algebra.CloneProgram(prog))
		}
	} else {
		checks = algebra.CloneProgram(eip.Program(s.opts.UseDifferential))
	}

	var out algebra.Program
	repairs := 0
	if eip.Repair != nil && (elided == 0 || len(checks) > 0) {
		// All-safe verdicts skip the repair too: a transaction that cannot
		// violate the constraint makes the repair a no-op by construction.
		repairs = 1
		rp := algebra.CloneProgram(eip.Repair.Program)
		for _, st := range rp {
			out = append(out, &repairStmt{Stmt: st, origin: eip.RuleName})
		}
	}
	out = out.Concat(checks)

	if eip.NonTriggering {
		wrapped := make(algebra.Program, len(out))
		for i, st := range out {
			wrapped[i] = &nonTriggeringStmt{Stmt: st}
		}
		return wrapped, elided, repairs, nil
	}
	return out, elided, repairs, nil
}

// nonTriggeringStmt wraps a statement of a non-triggering rule action so the
// trigger extraction of the next recursion level skips it (GetTrigPX,
// Definition 6.2). It is transparent for type checking and execution.
type nonTriggeringStmt struct {
	algebra.Stmt
}

// repairStmt wraps a statement of a rule's repair program, carrying the rule
// it repairs for so the next recursion level does not re-select that rule on
// its own repair. It is transparent for type checking and execution.
type repairStmt struct {
	algebra.Stmt
	origin string
}

// unwrapStmt strips the subsystem's marker wrappers off a statement.
func unwrapStmt(st algebra.Stmt) algebra.Stmt {
	for {
		switch x := st.(type) {
		case *nonTriggeringStmt:
			st = x.Stmt
		case *repairStmt:
			st = x.Stmt
		default:
			return st
		}
	}
}

// unwrapStmts strips marker wrappers off a whole program for analysis. All
// state-changing statements are included — non-triggering and repair
// statements raise no (or restricted) triggers but still write data the
// checks of selected rules observe.
func unwrapStmts(p algebra.Program) []algebra.Stmt {
	out := make([]algebra.Stmt, len(p))
	for i, st := range p {
		out[i] = unwrapStmt(st)
	}
	return out
}
