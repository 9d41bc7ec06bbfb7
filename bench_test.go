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
	"testing"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/lang"
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
				res, err = baseline.NewPostHoc(cat, false).Exec(exec, t)
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
			db := Open(nil)
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
