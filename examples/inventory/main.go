// Command inventory demonstrates transition constraints (Section 3.1's
// dynamic constraints): rules whose conditions compare the post-transaction
// state against the pre-transaction state via the auxiliary relation old(R).
// Stock levels may only change within bounds, shipped orders are immutable,
// and prices may not rise by more than 20% in one transaction.
//
// It also shows indexed lookups: secondary indexes declared through
// Options.Indexes turn equality selections ("sku = ...", "id = ...") and
// enforcement joins into key probes, so the transactions below touch only
// the keys they name — both in evaluation cost and in their optimistic
// conflict footprint (Result.Probes counts the probes a submit issued).
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	// Indexes declared up front are built as soon as the relations exist;
	// db.CreateIndex("orders(state)") could add more later. An index
	// answers equality lookups like "sku = ..." and comparison lookups like
	// "qty < 5" alike, probing a key or a key interval instead of scanning.
	db := repro.Open(&repro.Options{
		Indexes: []string{"stock(sku)", "orders(id)", "stock(qty)"},
	})

	db.MustCreateRelation(`relation stock(sku string, qty int, price float)`)
	db.MustCreateRelation(`relation orders(id int, sku string, state string)`)
	fmt.Printf("indexes: %v\n", db.Indexes())

	// Static domain constraint: quantities are non-negative.
	db.MustDefineConstraint("qtyDomain", `forall s (s in stock implies s.qty >= 0)`)

	// Transition constraint: a price may not rise by more than 20% within
	// one transaction (compares the new state against old(stock)).
	db.MustDefineConstraint("priceJump", `
		forall s (s in stock implies forall o (o in old(stock) implies
			(s.sku <> o.sku or s.price <= o.price * 1.2)))`)

	// Transition constraint: shipped orders are immutable — an order that
	// was shipped before the transaction must still exist, unchanged.
	db.MustDefineConstraint("shippedImmutable", `
		forall o (o in old(orders) implies (o.state <> "shipped" or
			exists n (n in orders and n == o)))`)

	if err := db.ValidateRules(); err != nil {
		log.Fatal(err)
	}

	must := func(res *repro.Result, err error) *repro.Result {
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	res := must(db.Submit(`begin
		insert(stock, values[("widget", 10, 2.50), ("gadget", 5, 10.0)]);
		insert(orders, values[(1, "widget", "shipped"), (2, "gadget", "open")]);
	end`))
	fmt.Printf("seed committed=%v\n", res.Committed)

	// A modest price increase (within 20%) commits.
	res = must(db.Submit(`begin
		update(stock, sku = "widget", [price = price * 1.1]);
	end`))
	fmt.Printf("+10%% price committed=%v\n", res.Committed)

	// A 50% jump violates the transition constraint.
	res = must(db.Submit(`begin
		update(stock, sku = "widget", [price = price * 1.5]);
	end`))
	fmt.Printf("+50%% price committed=%v constraint=%s\n", res.Committed, res.Constraint)

	// Editing an open order is fine; deleting a shipped one is not.
	res = must(db.Submit(`begin
		update(orders, id = 2, [state = "shipped"]);
	end`))
	fmt.Printf("ship order 2 committed=%v\n", res.Committed)

	// The selection probes the orders(id) index: one key lookup instead of
	// a scan, and the read record covers only the probed key, so a
	// concurrent transaction on any other order id cannot conflict.
	res = must(db.Submit(`begin
		delete(orders, select(orders, id = 1));
	end`))
	fmt.Printf("delete shipped order committed=%v constraint=%s probes=%d\n",
		res.Committed, res.Constraint, res.Probes)

	// Oversell: quantity would go negative; qtyDomain aborts.
	res = must(db.Submit(`begin
		update(stock, sku = "gadget", [qty = qty - 50]);
	end`))
	fmt.Printf("oversell committed=%v constraint=%s\n", res.Committed, res.Constraint)

	// Range lookup: the comparison probes the stock(qty) index —
	// a bounded interval scan instead of a full scan, and the read record
	// covers only the probed interval, so a concurrent transaction writing
	// any quantity outside it merge-commits instead of conflicting.
	lowStock, _ := db.Query(`select(stock, qty < 8)`)
	fmt.Printf("low stock (qty < 8): %v\n", lowStock.Data)

	rows, _ := db.Query(`stock`)
	fmt.Printf("final stock: %v\n", rows.Data)
	rows, _ = db.Query(`orders`)
	fmt.Printf("final orders: %v\n", rows.Data)

	// Durable variant: the identical setup against a directory. Index
	// definitions persist too — reopening with the same Options.Indexes
	// recovers them rather than double-defining, and setup written with
	// EnsureRelation runs unchanged on fresh and recovered state.
	dir, err := os.MkdirTemp("", "inventory-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	open := func() *repro.DB {
		d := repro.Open(&repro.Options{
			Dir:     dir,
			Sync:    repro.SyncBatched, // acknowledge fast, fsync in background
			Indexes: []string{"stock(sku)", "stock(qty)"},
		})
		if err := d.EnsureRelation(`relation stock(sku string, qty int, price float)`); err != nil {
			log.Fatal(err)
		}
		d.MustDefineConstraint("qtyDomain", `forall s (s in stock implies s.qty >= 0)`)
		return d
	}

	ddb := open()
	must(ddb.Submit(`begin insert(stock, values[("widget", 10, 2.50)]); end`))
	must(ddb.Submit(`begin update(stock, sku = "widget", [qty = qty - 3]); end`))
	// A clean Close flushes and fsyncs whatever the batched policy had not
	// synced yet; after a hard crash, SyncBatched loses at most the last
	// batch interval while SyncAlways loses nothing.
	if err := ddb.Close(); err != nil {
		log.Fatal(err)
	}

	ddb = open() // recovery: checkpoint + WAL replay + index rebuild
	defer ddb.Close()
	rows, _ = ddb.Query(`select(stock, sku = "widget")`)
	fmt.Printf("reopened durable stock: %v (indexes: %v)\n", rows.Data, ddb.Indexes())
}
