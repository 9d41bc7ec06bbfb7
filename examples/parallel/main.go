// Command parallel demonstrates concurrent transaction processing: many
// goroutines submit integrity-controlled transactions at once, each
// executing against its own database snapshot and committing through
// optimistic first-committer-wins validation.
//
// The same batch of referential-integrity transactions is submitted through
// 1, 2, 4 and 8 workers, spread over sharded relations so concurrent write
// sets rarely collide (on a single-core machine the sweep stays flat; the
// speedup needs real parallel hardware). The paper's fragmented, parallel
// constraint enforcement (Section 7) is regenerated by cmd/experiments.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
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

	fmt.Printf("concurrent submit throughput (%d txns, %d shards, snapshot isolation + optimistic commit):\n", txns, shards)
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
