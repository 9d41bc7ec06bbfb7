// Command quickstart reproduces the paper's running example (Examples 4.1,
// 4.2 and 5.1): the beer database with a domain rule R1 (aborting) and a
// referential rule R2 (compensating), showing how the integrity control
// subsystem rewrites a user transaction and what happens when it runs.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	db := repro.Open(nil)

	// The example schema of Section 4.1.
	db.MustCreateRelation(`relation beer(name string, type string, brewery string, alcohol int)`)
	db.MustCreateRelation(`relation brewery(name string, city string, country string)`)

	// R1 — Example 4.2: a domain constraint with the default aborting
	// response. The trigger set (INS(beer)) is generated from the condition.
	db.MustDefineConstraint("R1", `forall x (x in beer implies x.alcohol >= 0)`)

	// R2 — Example 4.2: referential integrity from beer.brewery to
	// brewery.name with a compensating action that inserts null-padded
	// parents for dangling references.
	db.MustDefineRule("R2", `
		if not forall x (x in beer implies
			exists y (y in brewery and x.brewery = y.name))
		then
			temp := diff(project(beer, brewery), project(brewery, name));
			insert(brewery, project(temp, #1 as name, null as city, null as country))`)

	for _, name := range db.RuleNames() {
		trig, _ := db.RuleTriggers(name)
		fmt.Printf("rule %s triggers on: %s\n", name, trig)
	}
	if err := db.ValidateRules(); err != nil {
		log.Fatalf("rule set invalid: %v", err)
	}
	fmt.Println("triggering graph is acyclic")

	// Example 5.1: the user transaction and its modified form.
	userTxn := `begin
		insert(beer, values[("exportgold", "stout", "guineken", 6)]);
	end`
	modified, report, err := db.Explain(userTxn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuser transaction modified (%d -> %d statements, depth %d, %d check(s) elided):\n%s\n",
		report.OriginalStmts, report.FinalStmts, report.Depth, report.ChecksElided, modified)

	// R1 was triggered but its alarm is not there: the inserted constant 6
	// provably satisfies alcohol >= 0, and the database already satisfies
	// R1, so the check could never fire. Executing runs R2's compensation,
	// which inserts the missing brewery "guineken".
	res, err := db.Submit(userTxn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed=%v inserted=%d\n", res.Committed, res.Inserted)

	rows, _ := db.Query(`brewery`)
	fmt.Printf("brewery relation after compensation: %v\n", rows.Data)

	// A violating transaction: negative alcohol aborts via R1, atomically.
	res, err = db.Submit(`begin
		insert(beer, values[("acid", "sour", "ghost", -1)]);
	end`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nviolating transaction committed=%v constraint=%s\n", res.Committed, res.Constraint)
	if res.Committed {
		log.Fatal("a transaction violating R1 committed")
	}
	n, _ := db.Count("beer")
	fmt.Printf("beer count after abort: %d (state restored)\n", n)

	// Durability: the same engine persists to disk when Options.Dir is set —
	// committed transactions append to a write-ahead log (group-fsynced per
	// epoch under the default SyncAlways policy) and Open recovers the
	// directory's schema, contents and indexes. See docs/RECOVERY.md.
	dir, err := os.MkdirTemp("", "quickstart-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ddb := repro.Open(&repro.Options{Dir: dir})
	// EnsureRelation is CreateRelation that tolerates the relation already
	// existing (with the same attributes) — the idiom for setup code that
	// runs on both fresh and reopened directories.
	if err := ddb.EnsureRelation(`relation beer(name string, type string, brewery string, alcohol int)`); err != nil {
		log.Fatal(err)
	}
	ddb.MustDefineConstraint("R1", `forall x (x in beer implies x.alcohol >= 0)`)
	res, err = ddb.Submit(`begin insert(beer, values[("krieken", "lambic", "laurenzeen", 4)]); end`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndurable commit committed=%v (fsynced before acknowledgment)\n", res.Committed)
	// Simulate a crash: abandon the handle without Close. Under SyncAlways
	// every acknowledged commit is already on disk.

	ddb = repro.Open(&repro.Options{Dir: dir}) // recovers checkpoint + WAL tail
	if err := ddb.EnsureRelation(`relation beer(name string, type string, brewery string, alcohol int)`); err != nil {
		log.Fatal(err)
	}
	n, _ = ddb.Count("beer")
	fmt.Printf("after crash and reopen: %d beer tuple(s) survived\n", n)
	if err := ddb.Close(); err != nil {
		log.Fatal(err)
	}
}
