// Command bank demonstrates integrity control on a ledger: referential
// integrity between accounts and their owners, per-account balance domain
// constraints, an aggregate cap on total exposure, and a compensating rule
// that keeps an audit relation consistent — the multi-update transaction
// scenario the paper's introduction motivates.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	db := repro.Open(nil)

	db.MustCreateRelation(`relation customers(id int, name string)`)
	db.MustCreateRelation(`relation accounts(id int, owner int, balance int)`)
	db.MustCreateRelation(`relation audit(account int, flagged string)`)

	// Every account belongs to an existing customer (aborting).
	db.MustDefineConstraint("ownerExists", `
		forall a (a in accounts implies
			exists c (c in customers and a.owner = c.id))`)

	// No overdrafts (aborting).
	db.MustDefineConstraint("noOverdraft", `
		forall a (a in accounts implies a.balance >= 0)`)

	// Total deposits are capped (aggregate constraint, aborting).
	db.MustDefineConstraint("exposureCap", `SUM(accounts, balance) <= 10000`)

	// Large accounts must be flagged in the audit relation; the compensating
	// action creates missing flags instead of aborting. The action writes
	// only to audit, which no rule triggers on, so the triggering graph
	// stays acyclic.
	db.MustDefineRule("auditLarge", `
		if not forall a (a in accounts implies (a.balance <= 5000 or
			exists f (f in audit and f.account = a.id)))
		then
			big := project(select(accounts, balance > 5000), id);
			have := project(audit, account);
			insert(audit, project(diff(big, have), #1 as account, "large-balance" as flagged))`)

	if err := db.ValidateRules(); err != nil {
		log.Fatal(err)
	}

	must := func(res *repro.Result, err error) *repro.Result {
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Seed customers and accounts in one multi-update transaction.
	res := must(db.Submit(`begin
		insert(customers, values[(1, "ann"), (2, "bob")]);
		insert(accounts, values[(100, 1, 4000), (101, 2, 1000)]);
	end`))
	fmt.Printf("seed committed=%v\n", res.Committed)

	// A transfer as a multi-update transaction: both updates inside one
	// atomic unit; integrity checked once against the final state.
	res = must(db.Submit(`begin
		update(accounts, id = 100, [balance = balance - 1500]);
		update(accounts, id = 101, [balance = balance + 1500]);
	end`))
	fmt.Printf("transfer committed=%v\n", res.Committed)

	// An overdraft attempt aborts atomically: neither side of the transfer
	// survives.
	res = must(db.Submit(`begin
		update(accounts, id = 100, [balance = balance - 9999]);
		update(accounts, id = 101, [balance = balance + 9999]);
	end`))
	fmt.Printf("overdraft committed=%v constraint=%s\n", res.Committed, res.Constraint)

	// Growing an account past the audit threshold triggers the compensating
	// rule: the flag appears in the same transaction.
	res = must(db.Submit(`begin
		update(accounts, id = 101, [balance = balance + 4000]);
	end`))
	fmt.Printf("large deposit committed=%v (rules fired: %v)\n", res.Committed, res.Report.RulesTriggered)

	rows, _ := db.Query(`audit`)
	fmt.Printf("audit relation: %v\n", rows.Data)

	// The aggregate cap: pushing total deposits over 10000 aborts.
	res = must(db.Submit(`begin
		insert(accounts, values[(102, 2, 9000)]);
	end`))
	fmt.Printf("cap-breaking insert committed=%v constraint=%s\n", res.Committed, res.Constraint)

	rows, _ = db.Query(`accounts`)
	fmt.Printf("final accounts: %v\n", rows.Data)
}
