// Command views demonstrates materialized view maintenance through
// transaction modification — the application beyond integrity control the
// paper's conclusions cite. Views stay consistent at every transaction
// boundary because their maintenance statements ride inside the very
// transactions that change their sources; integrity aborts roll the view
// back together with the data. The program exits non-zero if a view ever
// differs from its definition.
package main

import (
	"fmt"
	"log"
	"reflect"

	"repro"
)

func main() {
	db := repro.Open(nil)
	db.MustCreateRelation(`relation orders(id int, region string, amount int)`)

	// Integrity first: amounts are positive.
	db.MustDefineConstraint("positive", `forall o (o in orders implies o.amount > 0)`)

	// Every view is maintained from the transaction's deltas. The region
	// summary is a projection: deleting an order removes its region only
	// when no other order still has it.
	defs := map[string]string{
		"bigOrders": `select(orders, amount >= 500)`,
		"euOrders":  `select(orders, region = "eu")`,
		"regions":   `project(orders, #2 as region)`,
	}
	for _, v := range []string{"bigOrders", "euOrders", "regions"} {
		db.MustDefineView(v, defs[v])
	}

	must := func(res *repro.Result, err error) *repro.Result {
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	query := func(src string) [][]any {
		rows, err := db.Query(src)
		if err != nil {
			log.Fatal(err)
		}
		return rows.Data
	}
	show := func() {
		for _, v := range db.Views() {
			got, want := query(v), query(defs[v])
			fmt.Printf("  %s: %v\n", v, got)
			if !reflect.DeepEqual(got, want) {
				log.Fatalf("view %s holds %v, its definition gives %v", v, got, want)
			}
		}
	}

	res := must(db.Submit(`begin
		insert(orders, values[(1, "eu", 700), (2, "us", 100), (3, "eu", 900)]);
	end`))
	fmt.Printf("seed committed=%v (programs spliced: %v)\n", res.Committed, res.Report.RulesTriggered)
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
	// Order 3 is a second "eu" witness, so the region stays.
	if got := query("regions"); !reflect.DeepEqual(got, [][]any{{"eu"}, {"us"}}) {
		log.Fatalf("regions after deleting order 1 = %v, want [[eu] [us]]", got)
	}

	// An aborted transaction must not disturb the views.
	res = must(db.Submit(`begin
		insert(orders, values[(4, "eu", 800)]);
		insert(orders, values[(5, "eu", -1)]);
	end`))
	fmt.Printf("\nviolating transaction committed=%v constraint=%s\n", res.Committed, res.Constraint)
	if res.Committed {
		log.Fatal("violating transaction committed")
	}
	fmt.Println("views unchanged after abort:")
	show()
}
