// Command parallel demonstrates the two parallel dimensions of the engine.
//
// First, the fragmented, parallel constraint enforcement of the paper's
// Section 7 (PRISMA/DB on the POOMA machine): relations are hash-fragmented
// across simulated nodes, enforcement programs run fragment-locally in
// parallel, and checking cost falls with the node count. It uses the
// internal substrate directly, as a driver of the parallel experiment
// would.
//
// Second, concurrent transaction processing: many goroutines submit
// integrity-controlled transactions at once, each executing against its own
// database snapshot and committing through optimistic first-committer-wins
// validation, sweeping the worker count to show multi-core throughput.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bench"
)

func main() {
	cfg := bench.DefaultPaperConfig()
	fmt.Printf("workload: %d keys, %d FK tuples, %d inserted (paper Section 7)\n",
		cfg.Keys, cfg.FKs, cfg.Inserts)

	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-8s %-14s %-14s %-14s %-14s\n", "nodes", "ref/full", "ref/diff", "dom/full", "dom/diff")
	for _, nodes := range []int{1, 2, 4, 8} {
		cl, err := cfg.NewCluster(nodes, parent, child)
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.ApplyInserts("child", newChild); err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%-8d", nodes)
		for _, rule := range []string{"referential", "domain"} {
			ip, _ := cat.Program(rule)
			for _, diff := range []bool{false, true} {
				prog := ip.Program(diff)
				start := time.Now()
				res, err := cl.CheckProgram(prog)
				if err != nil {
					log.Fatal(err)
				}
				if res.Violations != 0 {
					log.Fatalf("unexpected violations: %d", res.Violations)
				}
				row += fmt.Sprintf(" %-13s", time.Since(start).Round(10*time.Microsecond))
			}
		}
		fmt.Println(row)
	}

	// Show that the checks actually fire: insert dangling children and
	// re-run the referential check.
	cl, _ := cfg.NewCluster(4, parent, child)
	bad := cfg.GenViolations(7)
	if err := cl.ApplyInserts("child", bad); err != nil {
		log.Fatal(err)
	}
	ip, _ := cat.Program("referential")
	res, err := cl.CheckProgram(ip.Program(true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter inserting 7 dangling children: violations=%d localized=%v\n",
		res.Violations, res.Localized)

	concurrentSweep()
}

// concurrentSweep drives the snapshot-isolated engine from a pool of
// goroutines calling Submit: the same batch of referential-integrity
// transactions is submitted through 1, 2, 4 and 8 workers, spread over
// sharded relations so concurrent write sets rarely collide (on a
// single-core machine the sweep stays flat; the speedup needs real
// parallel hardware).
func concurrentSweep() {
	const (
		shards  = 8
		parents = 500
		txns    = 2000
	)
	mkDB := func() *repro.DB {
		db := repro.Open(&repro.Options{MaxCommitRetries: 1_000_000})
		db.MustCreateRelation(`relation parent(id int, name string)`)
		rows := make([][]any, parents)
		for i := range rows {
			rows[i] = []any{i, fmt.Sprintf("p-%d", i)}
		}
		if err := db.Load("parent", rows); err != nil {
			log.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			db.MustCreateRelation(fmt.Sprintf(`relation child%d(id int, parent int, qty int)`, s))
			db.MustDefineConstraint(fmt.Sprintf("ref%d", s),
				fmt.Sprintf(`forall x (x in child%d implies exists y (y in parent and x.parent = y.id))`, s))
		}
		return db
	}
	srcs := make([]string, txns)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`,
			i%shards, i, i%parents)
	}

	fmt.Printf("\nconcurrent submit throughput (%d txns, %d shards, snapshot isolation + optimistic commit):\n", txns, shards)
	fmt.Printf("%-8s %-12s %-10s %-10s\n", "workers", "txns/s", "commits", "retries")
	for _, workers := range []int{1, 2, 4, 8} {
		db := mkDB()
		var commits, retries atomic.Int64
		next := make(chan string)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for src := range next {
					res, err := db.Submit(src)
					if err != nil {
						log.Fatal(err)
					}
					if res.Committed {
						commits.Add(1)
					}
					retries.Add(int64(res.Retries))
				}
			}()
		}
		for _, src := range srcs {
			next <- src
		}
		close(next)
		wg.Wait()
		elapsed := time.Since(start)
		fmt.Printf("%-8d %-12.0f %-10d %-10d\n",
			workers, float64(txns)/elapsed.Seconds(), commits.Load(), retries.Load())
	}
}
