// Command views demonstrates materialized view maintenance through
// transaction modification — the application beyond integrity control the
// paper's conclusions cite. Views stay consistent at every transaction
// boundary because their maintenance statements ride inside the very
// transactions that change their sources; integrity aborts roll the view
// back together with the data.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	db := repro.Open(nil)
	db.MustCreateRelation(`relation orders(id int, region string, amount int)`)

	// Integrity first: amounts are positive.
	db.MustDefineConstraint("positive", `forall o (o in orders implies o.amount > 0)`)

	// A selection view maintained incrementally from the deltas, and a
	// region summary recomputed per transaction.
	db.MustDefineView("bigOrders", `select(orders, amount >= 500)`, true)
	db.MustDefineView("euOrders", `select(orders, region = "eu")`, true)

	must := func(res *repro.Result, err error) *repro.Result {
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	res := must(db.Submit(`begin
		insert(orders, values[(1, "eu", 700), (2, "us", 100), (3, "eu", 900)]);
	end`))
	fmt.Printf("seed committed=%v (programs spliced: %v)\n", res.Committed, res.Report.RulesTriggered)

	show := func() {
		for _, v := range db.Views() {
			rows, _ := db.Query(v)
			fmt.Printf("  %s: %v\n", v, rows.Data)
		}
	}
	fmt.Println("views after seed:")
	show()

	// The modified transaction carries the maintenance statements; show it.
	text, _, err := db.Explain(`begin delete(orders, select(orders, id = 1)); end`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\na delete, as modified for view maintenance:\n%s\n", text)

	must(db.Submit(`begin delete(orders, select(orders, id = 1)); end`))
	fmt.Println("views after delete:")
	show()

	// An aborted transaction must not disturb the views.
	res = must(db.Submit(`begin
		insert(orders, values[(4, "eu", 800)]);
		insert(orders, values[(5, "eu", -1)]);
	end`))
	fmt.Printf("\nviolating transaction committed=%v constraint=%s\n", res.Committed, res.Constraint)
	fmt.Println("views unchanged after abort:")
	show()
}
