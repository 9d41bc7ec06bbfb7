package repro

import (
	"sync"

	"repro/internal/core"
)

// withEngine replaces db's enforcement by a reference configuration — full
// state, differential unpruned, or dynamic translation — for tests that
// compare the default engine against one. The subsystem reads the rule
// catalog per transaction, so it may be installed before or after rules are
// defined, but before anything is submitted.
func withEngine(db *DB, opts core.Options) *DB {
	db.sub = core.New(db.cat, opts)
	return db
}

// submitted is one transaction of submitAll with its outcome.
type submitted struct {
	src string
	res *Result
	err error
}

// submitAll submits srcs from a pool of workers goroutines and returns the
// outcomes in input order.
func submitAll(db *DB, srcs []string, workers int) []submitted {
	out := make([]submitted, len(srcs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := db.Submit(srcs[i])
				out[i] = submitted{src: srcs[i], res: res, err: err}
			}
		}()
	}
	for i := range srcs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
