// Package baseline implements the integrity control strategies transaction
// modification is compared against in the experiments:
//
//   - PostHoc: execute the user transaction unmodified, followed by every
//     rule's full-state alarm (the classical "check after, abort on
//     violation" discipline of theory-oriented proposals);
//   - Unchecked: no integrity control at all, the cost floor.
//
// Both reuse the same executor and enforcement programs as the modification
// subsystem, so measured differences isolate the strategy, not the engine.
package baseline

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/txn"
)

// PostHoc checks every rule of the catalog (regardless of triggers) against
// the post-transaction state before commit.
type PostHoc struct {
	cat *rules.Catalog
}

// NewPostHoc returns a post-hoc checker over the catalog.
func NewPostHoc(cat *rules.Catalog) *PostHoc {
	return &PostHoc{cat: cat}
}

// Exec runs program ⊕ every rule's full-state alarms as one transaction. A
// catalog holding a compensating rule is refused with an aborted Result
// before anything runs: corrective updates belong inside the transaction,
// which is what transaction modification is for.
func (p *PostHoc) Exec(exec *txn.Executor, t *txn.Transaction) (*txn.Result, error) {
	var alarms algebra.Program
	for _, ip := range p.cat.Programs() {
		for _, st := range ip.Full {
			if _, ok := st.(*algebra.Alarm); !ok {
				return &txn.Result{AbortReason: fmt.Errorf(
					"baseline: rule %s has a compensating action; post-hoc checking supports aborting rules only", ip.RuleName)}, nil
			}
		}
		// Cloned as transaction modification clones them: type-checking
		// annotates the AST, and the catalog's copy is shared.
		alarms = append(alarms, algebra.CloneProgram(ip.Full)...)
	}
	return exec.Exec(&txn.Transaction{Program: t.Program.Concat(alarms), Label: t.Label})
}
