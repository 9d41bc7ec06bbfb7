// Benchmark harness regenerating the paper's evaluation (Section 7) and the
// ablations listed in DESIGN.md. Absolute numbers differ from the 1992 POOMA
// hardware; the shapes under test are: domain ≪ referential (≈3×), cost
// falls with node count, differential ≪ full-state checking, and transaction
// modification ≪ post-hoc full checking. EXPERIMENTS.md records paper-vs-
// measured values produced by `go test -bench . -benchmem` and
// `cmd/experiments`.
package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bench"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/translate"
	"repro/internal/txn"
	"repro/internal/value"
)

// clusterFixture holds a loaded cluster with the insert batch applied, plus
// the compiled enforcement programs.
type clusterFixture struct {
	cl  *fragment.Cluster
	cat *rules.Catalog
}

func newClusterFixture(b *testing.B, cfg bench.PaperConfig, nodes int) *clusterFixture {
	b.Helper()
	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cfg.NewCluster(nodes, parent, child)
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.ApplyInserts("child", newChild); err != nil {
		b.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	return &clusterFixture{cl: cl, cat: cat}
}

func (f *clusterFixture) check(b *testing.B, rule string, useDiff bool) {
	b.Helper()
	ip, ok := f.cat.Program(rule)
	if !ok {
		b.Fatalf("missing rule %s", rule)
	}
	prog := ip.Program(useDiff)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.cl.CheckProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("unexpected violations: %d", res.Violations)
		}
	}
}

// BenchmarkPaperReferential regenerates the §7 headline: referential
// integrity checked after inserting 5 000 tuples into a 50 000-tuple FK
// relation against a 5 000-tuple key relation on an 8-node machine
// (paper: < 3 s).
func BenchmarkPaperReferential(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	for _, mode := range []struct {
		name string
		diff bool
	}{{"full", false}, {"differential", true}} {
		b.Run(mode.name, func(b *testing.B) {
			f := newClusterFixture(b, cfg, 8)
			f.check(b, "referential", mode.diff)
		})
	}
}

// BenchmarkPaperDomain regenerates the §7 companion number: a domain
// constraint in the same situation (paper: < 1 s, ≈3× cheaper than
// referential).
func BenchmarkPaperDomain(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	for _, mode := range []struct {
		name string
		diff bool
	}{{"full", false}, {"differential", true}} {
		b.Run(mode.name, func(b *testing.B) {
			f := newClusterFixture(b, cfg, 8)
			f.check(b, "domain", mode.diff)
		})
	}
}

// BenchmarkNodesSweep regenerates the parallel-scalability shape of [7, 9]:
// full referential checking cost falls as nodes increase.
func BenchmarkNodesSweep(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			f := newClusterFixture(b, cfg, nodes)
			f.check(b, "referential", false)
		})
	}
}

// BenchmarkUpdateSizeSweep shows checking cost versus update size, full vs
// differential: full-state checks are flat in update size, differential
// checks scale with it.
func BenchmarkUpdateSizeSweep(b *testing.B) {
	for _, inserts := range []int{50, 500, 5000} {
		cfg := bench.DefaultPaperConfig()
		cfg.Inserts = inserts
		for _, mode := range []struct {
			name string
			diff bool
		}{{"full", false}, {"differential", true}} {
			b.Run(fmt.Sprintf("U=%d/%s", inserts, mode.name), func(b *testing.B) {
				f := newClusterFixture(b, cfg, 1)
				f.check(b, "referential", mode.diff)
			})
		}
	}
}

// newExecBench builds base state, batch transaction and its modified
// variants (full / differential).
func newExecBench(b *testing.B, cfg bench.PaperConfig) (base func() *txn.Executor, txns map[string]*txn.Transaction) {
	b.Helper()
	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	store, err := cfg.NewStore(parent, child)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	childSchema, _ := cfg.Schema().Relation("child")
	user := txn.New(&algebra.Insert{Rel: "child", Src: algebra.NewLit(childSchema, newChild.Tuples()...)})

	txns = make(map[string]*txn.Transaction)
	txns["unchecked"] = user
	for _, mode := range []struct {
		name string
		diff bool
	}{{"modified-full", false}, {"modified-differential", true}} {
		sub := core.New(cat, core.Options{UseDifferential: mode.diff})
		m, _, err := sub.Modify(user.Clone())
		if err != nil {
			b.Fatal(err)
		}
		txns[mode.name] = m
	}
	base = func() *txn.Executor { return txn.NewExecutor(store.Clone()) }
	return base, txns
}

// BenchmarkAblationDifferential measures end-to-end transaction execution
// (insert 5 000 child tuples) under full-state vs differential enforcement.
func BenchmarkAblationDifferential(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	newExec, txns := newExecBench(b, cfg)
	for _, name := range []string{"modified-full", "modified-differential"} {
		b.Run(name, func(b *testing.B) {
			t := txns[name]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				exec := newExec()
				b.StartTimer()
				res, err := exec.Exec(t)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Committed {
					b.Fatalf("aborted: %v", res.AbortReason)
				}
			}
		})
	}
}

// BenchmarkBaselinePostHoc compares integrity control strategies end to end:
// unchecked execution (floor), transaction modification (full and
// differential), and post-hoc full checking.
func BenchmarkBaselinePostHoc(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	newExec, txns := newExecBench(b, cfg)
	cat, err := cfg.Catalog()
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, t *txn.Transaction, postHoc bool) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			exec := newExec()
			b.StartTimer()
			var res *txn.Result
			var err error
			if postHoc {
				res, err = newPostHocExec(cat, exec, t)
			} else {
				res, err = exec.Exec(t)
			}
			if err != nil {
				b.Fatal(err)
			}
			if !res.Committed {
				b.Fatalf("aborted: %v", res.AbortReason)
			}
		}
	}

	b.Run("unchecked", func(b *testing.B) { run(b, txns["unchecked"], false) })
	b.Run("modified-full", func(b *testing.B) { run(b, txns["modified-full"], false) })
	b.Run("modified-differential", func(b *testing.B) { run(b, txns["modified-differential"], false) })
	b.Run("posthoc-full", func(b *testing.B) { run(b, txns["unchecked"], true) })
}

func newPostHocExec(cat *rules.Catalog, exec *txn.Executor, t *txn.Transaction) (*txn.Result, error) {
	return exec.ExecWithCheck(t, func(env algebra.Env) error {
		for _, ip := range cat.Programs() {
			for _, st := range ip.Full {
				al, ok := st.(*algebra.Alarm)
				if !ok {
					continue
				}
				r, err := al.Expr.Eval(env)
				if err != nil {
					return err
				}
				if !r.IsEmpty() {
					return &algebra.ViolationError{Constraint: al.Constraint, Witnesses: r.Len()}
				}
			}
		}
		return nil
	})
}

// BenchmarkAblationStaticCompile measures modification latency — static
// precompiled integrity programs (Algorithm 6.2) vs dynamic per-transaction
// translation (Algorithm 5.1) — as the rule set grows.
func BenchmarkAblationStaticCompile(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	childSchema, _ := cfg.Schema().Relation("child")
	user := txn.New(&algebra.Insert{
		Rel: "child",
		Src: algebra.NewLit(childSchema, relation.Tuple{value.Int(1), value.Int(1), value.Int(1)}),
	})
	for _, nRules := range []int{1, 4, 16, 64} {
		cat := rules.NewCatalog(cfg.Schema())
		for i := 0; i < nRules; i++ {
			r, err := lang.ParseConstraintRule(fmt.Sprintf("dom%d", i),
				fmt.Sprintf(`forall x (x in child implies x.qty >= %d)`, -i))
			if err != nil {
				b.Fatal(err)
			}
			if err := cat.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		for _, mode := range []struct {
			name    string
			dynamic bool
		}{{"static", false}, {"dynamic", true}} {
			b.Run(fmt.Sprintf("rules=%d/%s", nRules, mode.name), func(b *testing.B) {
				sub := core.New(cat, core.Options{Dynamic: mode.dynamic})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := sub.Modify(user); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkViewMaintenance measures the extension of the paper's
// conclusions — materialized view maintenance via transaction modification —
// comparing incremental (delta-based) against recompute maintenance while a
// transaction inserts into a 50 000-tuple source relation.
func BenchmarkViewMaintenance(b *testing.B) {
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"recompute", false}, {"incremental", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db := Open(&Options{UseDifferential: true})
			if err := db.CreateRelation(`relation orders(id int, region string, amount int)`); err != nil {
				b.Fatal(err)
			}
			rows := make([][]any, 50000)
			for i := range rows {
				rows[i] = []any{i, "eu", i % 1000}
			}
			if err := db.Load("orders", rows); err != nil {
				b.Fatal(err)
			}
			if err := db.DefineView("big", `select(orders, amount >= 900)`, mode.incremental); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := fmt.Sprintf(`begin insert(orders, values[(%d, "us", %d)]); end`, 100000+i, i%1000)
				res, err := db.Submit(src)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Committed {
					b.Fatalf("aborted: %s", res.Reason)
				}
			}
		})
	}
}

// BenchmarkTable1Translate measures translation throughput over the seven
// construct classes of Table 1.
func BenchmarkTable1Translate(b *testing.B) {
	cfg := bench.DefaultPaperConfig()
	sch := cfg.Schema()
	sources := []string{
		`forall x (x in child implies x.qty >= 0)`,
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`,
		`forall x (x in child implies forall y (y in parent implies x.id <> y.id))`,
		`forall x, y ((x in child and y in child and x.id = y.id) implies x.qty = y.qty)`,
		`exists x (x in parent and x.id = 0)`,
		`SUM(child, qty) >= 0`,
		`CNT(parent) <= 1000000`,
	}
	var conds []calculus.WFF
	for _, src := range sources {
		w, err := lang.ParseConstraint(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := calculus.Validate(w, sch); err != nil {
			b.Fatal(err)
		}
		conds = append(conds, w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range conds {
			info, err := calculus.Validate(w, sch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := translate.Condition(w, info, sch, fmt.Sprintf("c%d", j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLargeRelationWrite measures single-writer write latency against
// relation size: each transaction rewrites a fixed-size batch of tuples
// (delete + reinsert with a bumped qty, so the relation's cardinality never
// drifts) in a preloaded relation of 1k/10k/100k tuples. With the
// persistent-trie representation the working copy is an O(1) structural
// share and the commit derives the successor instance in O(delta), so both
// ns/op and allocs/op must stay roughly flat as the relation grows — the
// former map-backed representation cloned the whole instance on a
// transaction's first write, which showed up here as an O(size) term in
// both. Run with -benchmem; the CI bench job tracks the allocation counts
// against BENCH_baseline.json.
func BenchmarkLargeRelationWrite(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		for _, delta := range []int{1, 50} {
			b.Run(fmt.Sprintf("size=%d/delta=%d", size, delta), func(b *testing.B) {
				db := Open(&Options{UseDifferential: true})
				db.MustCreateRelation(`relation item(id int, qty int)`)
				rows := make([][]any, size)
				for i := range rows {
					rows[i] = []any{i, 0}
				}
				if err := db.Load("item", rows); err != nil {
					b.Fatal(err)
				}
				// Pre-build the transaction sources so string assembly stays
				// out of the timed loop; qty tracks each tuple's rewrite
				// count so every delete names the exact current tuple.
				qty := make([]int, size)
				srcs := make([]string, b.N)
				var del, ins strings.Builder
				for i := range srcs {
					del.Reset()
					ins.Reset()
					for j := 0; j < delta; j++ {
						id := (i*delta + j) % size
						if j > 0 {
							del.WriteString(", ")
							ins.WriteString(", ")
						}
						fmt.Fprintf(&del, "(%d, %d)", id, qty[id])
						fmt.Fprintf(&ins, "(%d, %d)", id, qty[id]+1)
						qty[id]++
					}
					srcs[i] = fmt.Sprintf(
						"begin delete(item, values[%s]); insert(item, values[%s]); end",
						del.String(), ins.String())
				}
				// Clear the allocation debt of the preload so the first GC
				// cycle of the timed region reflects steady-state commits,
				// not the fixture build.
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := db.Submit(srcs[i])
					if err != nil {
						b.Fatal(err)
					}
					if !res.Committed {
						b.Fatalf("aborted: %s", res.Reason)
					}
				}
			})
		}
	}
}

// newShardedDB builds the concurrent-submit workload: one parent relation
// and `shards` child relations, each guarded by its own referential rule
// and preloaded with childRows valid tuples so per-transaction costs that
// scale with relation size (working-copy cloning, any whole-relation scan
// an enforcement program performs) are actually measured. Transactions that
// touch different relations have disjoint write sets, so the conflict rate
// is controlled entirely by how submitters pick targets.
func newShardedDB(b *testing.B, shards, parents int) *DB {
	return newShardedDBOpts(b, shards, parents, nil)
}

// newShardedDBOpts is newShardedDB with an optional Options hook, for
// benchmarks that sweep facade knobs (epoch caps, probe tuning) over the
// same workload.
func newShardedDBOpts(b *testing.B, shards, parents int, mut func(*Options)) *DB {
	const childRows = 4000
	b.Helper()
	opts := Options{UseDifferential: true, MaxCommitRetries: 1_000_000}
	if mut != nil {
		mut(&opts)
	}
	db := Open(&opts)
	if err := db.CreateRelation(`relation parent(id int, name string)`); err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, parents)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprintf("p-%d", i)}
	}
	if err := db.Load("parent", rows); err != nil {
		b.Fatal(err)
	}
	crows := make([][]any, childRows)
	for i := range crows {
		// Ids far above the benchmark's insert range, referencing valid
		// parents.
		crows[i] = []any{1_000_000 + i, i % parents, 1}
	}
	for s := 0; s < shards; s++ {
		if err := db.CreateRelation(fmt.Sprintf(`relation child%d(id int, parent int, qty int)`, s)); err != nil {
			b.Fatal(err)
		}
		err := db.DefineConstraint(fmt.Sprintf("ref%d", s),
			fmt.Sprintf(`forall x (x in child%d implies exists y (y in parent and x.parent = y.id))`, s))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Load(fmt.Sprintf("child%d", s), crows); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkConcurrentSubmit measures end-to-end submit throughput
// (parse + modification + snapshot execution + optimistic commit) under a
// worker-pool, sweeping worker count against conflict shape. "low" spreads
// transactions round-robin over 16 relations so concurrent write sets
// rarely share a relation; "high" aims every transaction at
// one relation with disjoint tuples — the workload that serialized through
// retry under relation-granular validation and now merge-commits under
// tuple-granular validation; "rmw" recycles eight tuple identities in
// one relation so concurrent pairs genuinely collide and must retry
// (with backoff) no matter how fine the validator.
//
// "alarmscan" and "alarmprobe" are the selective-alarm pair: every
// transaction deletes a distinct childless spare parent, which triggers
// the deletion-side referential check semijoin(child_i, del(parent)) over
// eight preloaded 4000-tuple child relations. Without indexes (alarmscan)
// the selection scans parent and each check scans its child relation, so
// the read footprint is whole relations and concurrent deleters conflict;
// with auto-indexing (alarmprobe) the same transactions issue a handful of
// key probes, their footprints are disjoint probe keys, and concurrent
// deleters merge-commit on the shared parent relation instead of retrying.
//
// "alarmrangescan" and "alarmrangeprobe" are the ordered-index counterpart:
// every transaction bumps a distinct low-quantity tuple of one of eight
// preloaded 4000-tuple stock relations, each guarded by an existential
// reserve constraint whose check selects stock by a threshold comparison
// (qty >= 100000 — only an untouched sentinel qualifies). Without indexes
// (alarmrangescan) both the update predicate and the threshold check scan,
// so concurrent updaters of one relation conflict and retry; with declared
// stock(id) hash indexes and auto-built stock(qty) ordered indexes
// (alarmrangeprobe) the update probes its key and the check probes the
// threshold interval, footprints are disjoint keys plus intervals the
// writes project outside of, and concurrent updaters merge-commit.
//
// Reported txns/s is the headline; retries/txn shows the price of
// contention and merged/txn the rate of delta-merged (conflict-avoided)
// commits.
func BenchmarkConcurrentSubmit(b *testing.B) {
	const (
		shards  = 16
		parents = 1000
	)
	type workload struct {
		name  string
		setup func(b *testing.B, n int) *DB
		src   func(i int) string
	}
	std := func(b *testing.B, _ int) *DB { return newShardedDB(b, shards, parents) }
	alarm := func(indexed bool) func(*testing.B, int) *DB {
		return func(b *testing.B, n int) *DB {
			return newAlarmDB(b, 8, parents, 4000, n, indexed)
		}
	}
	rangeAlarm := func(indexed, prune bool) func(*testing.B, int) *DB {
		return func(b *testing.B, _ int) *DB {
			return newRangeAlarmDB(b, 8, 4000, indexed, prune)
		}
	}
	insertInto := func(shard func(int) int) func(int) string {
		return func(i int) string {
			return fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`, shard(i), i, i%parents)
		}
	}
	deleteSpare := func(i int) string {
		return fmt.Sprintf(`begin delete(parent, select(parent, id = %d)); end`, spareBase+i)
	}
	bumpStock := func(i int) string {
		// Distinct (relation, id) pairs across any realistic in-flight
		// window, so probed runs never collide on a tuple.
		return fmt.Sprintf(`begin update(stock%d, id = %d, [qty = qty + 1]); end`, i%8, (i/8)%4000)
	}
	for _, conflict := range []workload{
		{"low", std, insertInto(func(i int) int { return i % shards })},
		{"high", std, insertInto(func(int) int { return 0 })},
		{"rmw", std, func(i int) string {
			// Read-modify-write of one of eight hot rows in one relation:
			// the selection scans child0, so every concurrent pair
			// genuinely conflicts and must retry through the backoff path.
			return fmt.Sprintf(
				`begin delete(child0, select(child0, id = %d)); insert(child0, values[(%d, %d, 1)]); end`,
				i%8, i%8, i%parents)
		}},
		{"alarmscan", alarm(false), deleteSpare},
		{"alarmprobe", alarm(true), deleteSpare},
		{"alarmrangescan", rangeAlarm(false, false), bumpStock},
		{"alarmrangeprobe", rangeAlarm(true, false), bumpStock},
		// The safe-heavy contrast pair: every bumpStock update is a monotone
		// qty step away from the reserve threshold, which the static safety
		// analyzer proves harmless. With pruning on the reserve checks are
		// elided wholesale — fewer probes/txn and smaller read sets than the
		// identical unpruned workload above.
		{"alarmrangepruned", rangeAlarm(true, true), bumpStock},
	} {
		for _, workers := range []int{1, 2, 4, 8, 16, 32} {
			b.Run(fmt.Sprintf("conflict=%s/workers=%d", conflict.name, workers), func(b *testing.B) {
				db := conflict.setup(b, b.N)
				srcs := make([]string, b.N)
				for i := range srcs {
					srcs[i] = conflict.src(i)
				}
				// Setup loads observe metrics too; report workload deltas.
				base := db.Metrics()
				b.ResetTimer()
				results := db.ExecParallel(srcs, workers)
				b.StopTimer()
				retries, probes := 0, 0
				for _, pr := range results {
					if pr.Err != nil {
						b.Fatal(pr.Err)
					}
					if !pr.Result.Committed {
						b.Fatalf("aborted: %s", pr.Result.Reason)
					}
					retries += pr.Result.Retries
					probes += pr.Result.Probes
				}
				stats := db.CommitStats()
				snap := db.Metrics()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
				b.ReportMetric(float64(retries)/float64(b.N), "retries/txn")
				b.ReportMetric(float64(probes)/float64(b.N), "probes/txn")
				b.ReportMetric(float64(stats.Conflicts)/float64(b.N), "conflicts/txn")
				b.ReportMetric(float64(stats.MergedCommits)/float64(b.N), "merged/txn")
				elided := snap.Counters["repro_txn_checks_elided_total"] - base.Counters["repro_txn_checks_elided_total"]
				b.ReportMetric(float64(elided)/float64(b.N), "elided/txn")
				readKeys := snap.Histograms["repro_txn_read_keys_size"].Sum - base.Histograms["repro_txn_read_keys_size"].Sum
				b.ReportMetric(float64(readKeys)/float64(b.N), "readkeys/txn")
				if stats.Epochs > 0 {
					b.ReportMetric(float64(stats.Commits)/float64(stats.Epochs), "txns/epoch")
				}
			})
		}
	}
}

// BenchmarkGroupCommitBatch sweeps the epoch size cap over the low-conflict
// insert workload at a fixed worker count. batch=1 degenerates to the old
// one-commit-per-epoch sequencer (every commit pays its own validation
// snapshot, derivation, and published swap); batch=0 lets each epoch absorb
// the whole pending queue. The spread between them is the price of the
// per-commit critical section that group commit amortizes, and txns/epoch
// shows how much batching the queue actually achieved.
func BenchmarkGroupCommitBatch(b *testing.B) {
	const (
		shards  = 16
		parents = 1000
		workers = 16
	)
	for _, batch := range []int{1, 4, 32, 0} {
		name := fmt.Sprintf("batch=%d", batch)
		if batch == 0 {
			name = "batch=all"
		}
		b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
			db := newShardedDBOpts(b, shards, parents, func(o *Options) {
				o.GroupCommitBatch = batch
			})
			srcs := make([]string, b.N)
			for i := range srcs {
				srcs[i] = fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`,
					i%shards, i, i%parents)
			}
			b.ResetTimer()
			results := db.ExecParallel(srcs, workers)
			b.StopTimer()
			for _, pr := range results {
				if pr.Err != nil {
					b.Fatal(pr.Err)
				}
				if !pr.Result.Committed {
					b.Fatalf("aborted: %s", pr.Result.Reason)
				}
			}
			stats := db.CommitStats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
			if stats.Epochs > 0 {
				b.ReportMetric(float64(stats.Commits)/float64(stats.Epochs), "txns/epoch")
			}
		})
	}
}

// BenchmarkDurableCommit prices durability: the low-conflict insert workload
// at a fixed worker count, swept over the WAL sync policy against the
// in-memory engine as the cost floor. sync=always pays one group fsync per
// commit epoch (the batch amortizes it — txns/epoch shows by how much),
// sync=batched decouples acknowledgment from fsync, and sync=off writes to
// the OS only. Auto-checkpointing stays enabled, so the numbers include the
// background checkpoints a real deployment would take.
func BenchmarkDurableCommit(b *testing.B) {
	const (
		shards  = 16
		parents = 1000
		workers = 8
	)
	type variant struct {
		name string
		mut  func(*Options, string)
	}
	for _, v := range []variant{
		{"memory", func(*Options, string) {}},
		{"sync=always", func(o *Options, dir string) { o.Dir = dir; o.Sync = SyncAlways }},
		{"sync=batched", func(o *Options, dir string) { o.Dir = dir; o.Sync = SyncBatched }},
		{"sync=off", func(o *Options, dir string) { o.Dir = dir; o.Sync = SyncOff }},
	} {
		b.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(b *testing.B) {
			dir := b.TempDir()
			db := newShardedDBOpts(b, shards, parents, func(o *Options) {
				v.mut(o, dir)
			})
			defer db.Close()
			srcs := make([]string, b.N)
			for i := range srcs {
				srcs[i] = fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`,
					i%shards, i, i%parents)
			}
			b.ResetTimer()
			results := db.ExecParallel(srcs, workers)
			b.StopTimer()
			for _, pr := range results {
				if pr.Err != nil {
					b.Fatal(pr.Err)
				}
				if !pr.Result.Committed {
					b.Fatalf("aborted: %s", pr.Result.Reason)
				}
			}
			stats := db.CommitStats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
			if stats.Epochs > 0 {
				b.ReportMetric(float64(stats.Commits)/float64(stats.Epochs), "txns/epoch")
			}
			// The WAL's own latency histogram prices the sync policy:
			// p50/p99 of the group fsync (absent for memory and sync=off).
			if h := db.Metrics().Histograms["repro_wal_fsync_seconds"]; h.Count > 0 {
				b.ReportMetric(h.Quantile(0.50)/1e6, "fsync_p50_ms")
				b.ReportMetric(h.Quantile(0.99)/1e6, "fsync_p99_ms")
			}
		})
	}
}

// BenchmarkRecovery measures Open on a directory whose WAL tail holds a
// known number of committed epochs past the last checkpoint — the recovery
// cost a crash at that point would pay. txns=0 recovers from the checkpoint
// alone (the floor: directory scan + checkpoint load + index rebuild);
// the swept points show replay cost growing with WAL length. Recovery is
// idempotent and non-destructive short of truncating unusable frames, so
// one prepared directory serves every iteration.
func BenchmarkRecovery(b *testing.B) {
	for _, txns := range []int{0, 1000, 4000, 16000} {
		b.Run(fmt.Sprintf("txns=%d", txns), func(b *testing.B) {
			dir := b.TempDir()
			db := durableBenchOpen(b, dir, nil)
			if err := db.CreateRelation(`relation kv(k int, v int)`); err != nil {
				b.Fatal(err)
			}
			// Baseline contents reachable only through the checkpoint.
			rows := make([][]any, 4000)
			for i := range rows {
				rows[i] = []any{1_000_000 + i, i}
			}
			if err := db.Load("kv", rows); err != nil {
				b.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			srcs := make([]string, txns)
			for i := range srcs {
				srcs[i] = fmt.Sprintf(`begin insert(kv, values[(%d, %d)]); end`, i, i)
			}
			for _, pr := range db.ExecParallel(srcs, 8) {
				if pr.Err != nil {
					b.Fatal(pr.Err)
				}
				if !pr.Result.Committed {
					b.Fatalf("aborted: %s", pr.Result.Reason)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var replayRecs, replayBytes uint64
			for i := 0; i < b.N; i++ {
				reg := obs.NewRegistry()
				rdb := durableBenchOpen(b, dir, reg)
				if n, _ := rdb.Count("kv"); n != 4000+txns {
					b.Fatalf("recovered %d tuples, want %d", n, 4000+txns)
				}
				if err := rdb.Close(); err != nil {
					b.Fatal(err)
				}
				snap := reg.Snapshot()
				replayRecs += snap.Counters["repro_recovery_replayed_records_total"]
				replayBytes += snap.Counters["repro_recovery_replayed_bytes_total"]
			}
			b.StopTimer()
			// Replay throughput from the recovery layer's own counters;
			// txns=0 recovers from the checkpoint alone and reports none.
			if sec := b.Elapsed().Seconds(); replayRecs > 0 && sec > 0 {
				b.ReportMetric(float64(replayRecs)/sec, "replay_recs/s")
				b.ReportMetric(float64(replayBytes)/1e6/sec, "replay_MB/s")
			}
		})
	}
}

// BenchmarkColdScan measures a full scan immediately after Open, swept over
// the node-cache budget: resident opens decode the whole checkpoint up
// front (the scan itself is then pure memory), while paged opens come up in
// O(1) and fault node blocks in as the scan reaches them, with the CLOCK
// hand keeping residency near the budget. cache_hit_rate and faults/op come
// from the cache's own counters; the 256 KiB point keeps the budget far
// below the dataset so the scan pays one fault per node block (and a warm
// re-scan still hits nothing — sequential flooding is CLOCK's worst case),
// while the 16 MiB point holds the decoded working set, so the warm re-scan
// runs entirely from memory.
func BenchmarkColdScan(b *testing.B) {
	const rows = 30000
	pad := strings.Repeat("x", 64)
	dir := b.TempDir()
	db := durableBenchOpen(b, dir, nil)
	if err := db.CreateRelation(`relation kv(k int, v string)`); err != nil {
		b.Fatal(err)
	}
	load := make([][]any, rows)
	for i := range load {
		load[i] = []any{i, fmt.Sprintf("%06d-%s", i, pad)}
	}
	if err := db.Load("kv", load); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}

	for _, v := range []struct {
		name  string
		cache int64
	}{
		{"resident", 0},
		{"cache=256KiB", 256 << 10},
		{"cache=16MiB", 16 << 20},
	} {
		b.Run(v.name, func(b *testing.B) {
			var coldFaults, warmHits, warmMisses uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg := obs.NewRegistry()
				rdb, err := OpenChecked(&Options{Dir: dir, Sync: SyncOff, CheckpointBytes: -1, CacheBytes: v.cache, Metrics: reg})
				if err != nil {
					b.Fatal(err)
				}
				rs, err := rdb.Query("kv")
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Data) != rows {
					b.Fatalf("scan saw %d rows, want %d", len(rs.Data), rows)
				}
				// Untimed warm re-scan: its hit rate shows how much of the
				// working set the budget keeps resident after one pass.
				b.StopTimer()
				cold := reg.Snapshot()
				coldFaults += cold.Counters["repro_storage_cache_misses_total"]
				if _, err := rdb.Query("kv"); err != nil {
					b.Fatal(err)
				}
				warm := reg.Snapshot()
				warmHits += warm.Counters["repro_storage_cache_hits_total"] - cold.Counters["repro_storage_cache_hits_total"]
				warmMisses += warm.Counters["repro_storage_cache_misses_total"] - cold.Counters["repro_storage_cache_misses_total"]
				if err := rdb.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			if total := warmHits + warmMisses; total > 0 {
				b.ReportMetric(float64(warmHits)/float64(total), "cache_hit_rate")
			}
			if coldFaults > 0 {
				b.ReportMetric(float64(coldFaults)/float64(b.N), "faults/op")
			}
		})
	}
}

// durableBenchOpen opens dir with auto-checkpointing disabled, so the WAL
// tail BenchmarkRecovery prepares stays exactly as long as prepared. A
// non-nil registry captures the open's recovery metrics.
func durableBenchOpen(b *testing.B, dir string, reg *obs.Registry) *DB {
	b.Helper()
	db, err := OpenChecked(&Options{Dir: dir, Sync: SyncOff, CheckpointBytes: -1, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkObsOverhead prices the always-on instrumentation on the
// low-conflict insert workload: obs=on is the default path (private
// registry, no tracer), obs=off strips the metric sinks entirely. The
// on/off ns/op ratio is the number TestObsOverheadGuard bounds in CI.
func BenchmarkObsOverhead(b *testing.B) {
	const (
		shards  = 4
		parents = 100
		workers = 8
	)
	for _, v := range []struct {
		name    string
		disable bool
	}{
		{"obs=on", false},
		{"obs=off", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			db := newShardedDBOpts(b, shards, parents, nil)
			if v.disable {
				db.store.SetObservability(nil, nil)
			}
			srcs := make([]string, b.N)
			for i := range srcs {
				srcs[i] = fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`,
					i%shards, i, i%parents)
			}
			b.ResetTimer()
			for _, pr := range db.ExecParallel(srcs, workers) {
				if pr.Err != nil {
					b.Fatal(pr.Err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
		})
	}
}
