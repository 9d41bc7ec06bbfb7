package core

import (
	"fmt"
	"slices"

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

// Report describes what the modification did to a transaction.
type Report struct {
	Depth          int
	OriginalStmts  int
	FinalStmts     int
	RulesTriggered map[string]int // rule name → times selected
	// ChecksElided counts compiled check programs the safety analyzer
	// elided across all levels.
	ChecksElided int
	// ChecksRepaired counts repair programs appended across all levels.
	ChecksRepaired int
}

// Modify implements ModT: it debrackets the transaction, recursively extends
// the program with the enforcement programs of triggered rules, and
// rebrackets (Algorithm 5.1). The input transaction is not mutated.
func (s *Subsystem) Modify(t *txn.Transaction) (*txn.Transaction, *Report, error) {
	report := &Report{
		OriginalStmts:  len(t.Program),
		RulesTriggered: make(map[string]int),
	}
	prog, err := s.modP(t.Debracket(), report)
	if err != nil {
		return nil, nil, err
	}
	report.FinalStmts = len(prog)
	out := txn.Bracket(prog)
	out.Label = t.Label
	return out, report, nil
}

// modP implements ModP: P if nothing is triggered, else P ⊕ ModP(TrigP(P)),
// one level per iteration. Level 1 selects the programs whose triggers the
// user's statements raise: the user program acts as a program that raises
// them. Every later level selects the rules.Selects-successors of the
// programs the level before it appended statements for. The deferred
// programs the levels select are appended once each, at the end.
func (s *Subsystem) modP(p algebra.Program, report *Report) (algebra.Program, error) {
	programs := s.cat.Programs()
	user := rules.IntegrityProgram{Raises: trigger.FromProgram(p)}
	writers := []*rules.IntegrityProgram{&user}
	var deferred []*rules.IntegrityProgram
	out, level := p, p
	for depth := 0; len(writers) > 0; depth++ {
		if depth >= DefaultMaxDepth {
			return nil, fmt.Errorf("core: modification exceeded depth %d; the rule set has a triggering cycle (see the triggering graph analysis in package graph)", DefaultMaxDepth)
		}
		level, writers = s.trigP(programs, level, writers, depth, report, &deferred)
		if len(level) > 0 {
			out = out.Concat(level)
		}
	}
	for _, ip := range deferred {
		report.RulesTriggered[ip.RuleName]++
		out = out.Concat(s.appendEnforcement(nil, ip, nil, report))
	}
	return out, nil
}

// trigP implements TrigP for one level (SelPS/ConcatP of Algorithm 6.2):
// the concatenation, in catalog order, of the enforcement programs of the
// programs some writer selects. level holds the statements the writers
// appended, which the safety analyzer scores the checks against. It
// returns the selected programs that appended statements and raise
// triggers, the writers of the next level. A selected deferred program is
// added to deferred instead of the level.
func (s *Subsystem) trigP(programs []*rules.IntegrityProgram, level algebra.Program, writers []*rules.IntegrityProgram, depth int, report *Report, deferred *[]*rules.IntegrityProgram) (algebra.Program, []*rules.IntegrityProgram) {
	var out algebra.Program
	var next []*rules.IntegrityProgram
	for _, ip := range programs {
		if !selectedBy(writers, ip) {
			continue
		}
		if ip.Deferred {
			if !slices.Contains(*deferred, ip) {
				*deferred = append(*deferred, ip)
			}
			continue
		}
		report.Depth = depth + 1
		report.RulesTriggered[ip.RuleName]++
		n := len(out)
		out = s.appendEnforcement(out, ip, level, report)
		// Only a repair or a compensating action raises anything, so only
		// its program can select at the next level.
		if len(out) > n && !ip.Raises.IsEmpty() {
			next = append(next, ip)
		}
	}
	return out, next
}

// selectedBy reports whether any of the writers selects ip.
func selectedBy(writers []*rules.IntegrityProgram, ip *rules.IntegrityProgram) bool {
	for _, from := range writers {
		if rules.Selects(from, ip) {
			return true
		}
	}
	return false
}

// appendEnforcement appends a fresh copy of ip's enforcement program to
// dst: repair statements first, checks after them. Each part's checks are
// its full-state program without UseDifferential, every Δ term check
// without Prune, and otherwise the checks the safety analyzer finds the
// level's statements require; a rule whose checks are all elided appends
// nothing, since its repair would be a no-op too. Compensating and view
// programs run their stored action. The elided checks and the appended
// repair are counted in report.
func (s *Subsystem) appendEnforcement(dst algebra.Program, ip *rules.IntegrityProgram, level algebra.Program, report *Report) algebra.Program {
	if len(ip.Plans) == 0 {
		return appendClones(dst, ip.Full)
	}
	start := len(dst)
	elided := 0
	for _, pl := range ip.Plans {
		var prog algebra.Program
		switch {
		case !s.opts.UseDifferential:
			prog = pl.Full
		case !s.opts.Prune:
			prog, _ = pl.ProgramFor(translate.ConservativeNeed(pl.Terms))
		default:
			var skipped int
			prog, skipped = pl.ProgramFor(translate.AnalyzeSafety(pl.Part, pl.Terms, s.cat.Schema(), level))
			elided += skipped
		}
		dst = appendClones(dst, prog)
	}
	report.ChecksElided += elided
	if ip.Repair == nil || (elided > 0 && len(dst) == start) {
		return dst
	}
	report.ChecksRepaired++
	return slices.Insert(dst, start, algebra.CloneProgram(ip.Repair.Program)...)
}

// appendClones appends a copy of each statement of p to dst: the stored
// programs are shared by every transaction, and execution binds the
// statements it runs.
func appendClones(dst, p algebra.Program) algebra.Program {
	for _, st := range p {
		dst = append(dst, algebra.CloneStmt(st))
	}
	return dst
}
