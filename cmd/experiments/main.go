// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index): Table 1 (constraint
// construct translation), Example 5.1 (transaction modification), the
// Section 7 performance claims, and the ablation sweeps. Output is plain
// text suitable for diffing into EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/txn"
	"repro/internal/value"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table 1 (constraint translation)")
		example51 = flag.Bool("example51", false, "regenerate Example 5.1 (transaction modification)")
		perf      = flag.Bool("perf", false, "regenerate the Section 7 performance experiment")
		sweeps    = flag.Bool("sweeps", false, "run the ablation sweeps")
		all       = flag.Bool("all", false, "run everything")
	)
	flag.Parse()
	if !*table1 && !*example51 && !*perf && !*sweeps {
		*all = true
	}
	if *all || *table1 {
		runTable1()
	}
	if *all || *example51 {
		runExample51()
	}
	if *all || *perf {
		runPerf()
	}
	if *all || *sweeps {
		runSweeps()
	}
}

// runTable1 translates the seven construct classes of Table 1 and prints the
// produced algebra next to the paper's forms. Semijoin/antijoin forms are
// emptiness-equivalent to the paper's π/∩/− renderings.
func runTable1() {
	fmt.Println("== Table 1: translation of typical constraint constructs ==")
	cfg := bench.DefaultPaperConfig()
	sch := cfg.Schema() // parent(id, name), child(id, parent, qty)
	rows := []struct {
		cl    string
		paper string
	}{
		{`forall x (x in child implies x.qty >= 0)`,
			"alarm(σ_{¬c'} R)"},
		{`forall x (x in child implies exists y (y in parent and x.parent = y.id))`,
			"alarm(π_i R ▷ π_j S)"},
		{`forall x (x in child implies forall y (y in parent implies x.id <> y.id))`,
			"alarm(π_i R ∩ π_j S)"},
		{`forall x, y ((x in child and y in child and x.id = y.id) implies x.qty = y.qty)`,
			"alarm(σ_{¬c2'}(R ⋈_{c1'} S))"},
		{`exists x (x in parent and x.id = 0)`,
			"alarm(σ_{attr1=0}(CNT(σ_{c'} R)))"},
		{`SUM(child, qty) >= 0`,
			"alarm(σ_{¬c'}(AGGR(R, i)))"},
		{`CNT(parent) <= 1000000`,
			"alarm(σ_{¬c'}(CNT(R)))"},
	}
	for i, row := range rows {
		w, err := lang.ParseConstraint(row.cl)
		if err != nil {
			log.Fatalf("row %d parse: %v", i+1, err)
		}
		info, err := calculus.Validate(w, sch)
		if err != nil {
			log.Fatalf("row %d validate: %v", i+1, err)
		}
		res, err := translate.Condition(w, info, sch, fmt.Sprintf("c%d", i+1))
		if err != nil {
			log.Fatalf("row %d translate: %v", i+1, err)
		}
		fmt.Printf("row %d\n  CL:    %s\n  paper: %s\n  ours:  %s", i+1, row.cl, row.paper, res.Program)
		fmt.Printf("  class: %s\n\n", res.Parts[0].Class)
	}
}

// runExample51 rebuilds the beer database and prints the paper's modified
// form of its example transaction — every triggered rule's full-state
// program, from the full-state engine — and then the form the default
// engine (repro.Open) executes: differential, with the checks the safety
// analyzer proves unnecessary elided.
func runExample51() {
	fmt.Println("== Example 5.1: transaction modification ==")
	const userTxn = `begin
		insert(beer, values[("exportgold", "stout", "guineken", 6)]);
	end`
	db := repro.Open(nil)
	sch := schema.MustDatabase()
	cat := rules.NewCatalog(sch)
	for _, ddl := range []string{
		`relation beer(name string, type string, brewery string, alcohol int)`,
		`relation brewery(name string, city string, country string)`,
	} {
		db.MustCreateRelation(ddl)
		rs, err := lang.ParseRelationSchema(ddl)
		if err != nil {
			log.Fatal(err)
		}
		if err := sch.Add(rs); err != nil {
			log.Fatal(err)
		}
	}
	const r1 = `forall x (x in beer implies x.alcohol >= 0)`
	const r2 = `
		if not forall x (x in beer implies
			exists y (y in brewery and x.brewery = y.name))
		then
			temp := diff(project(beer, brewery), project(brewery, name));
			insert(brewery, project(temp, #1 as name, null as city, null as country))`
	db.MustDefineConstraint("R1", r1)
	db.MustDefineRule("R2", r2)
	rule1, err := lang.ParseConstraintRule("R1", r1)
	if err != nil {
		log.Fatal(err)
	}
	rule2, err := lang.ParseRule("R2", r2, sch)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []*rules.Rule{rule1, rule2} {
		if err := cat.Add(r); err != nil {
			log.Fatal(err)
		}
	}

	prog, err := lang.ParseTransaction(userTxn, sch)
	if err != nil {
		log.Fatal(err)
	}
	paper, rep, err := core.New(cat, core.Options{}).Modify(txn.Bracket(prog))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper's form, full-state checks (depth %d, %d -> %d statements):\n%s\n\n",
		rep.Depth, rep.OriginalStmts, rep.FinalStmts, paper)

	text, mrep, err := db.Explain(userTxn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default engine, differential and pruned (depth %d, %d -> %d statements, %d check(s) elided):\n%s\n\n",
		mrep.Depth, mrep.OriginalStmts, mrep.FinalStmts, mrep.ChecksElided, text)
}

// medianOf runs fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2]
}

// runPerf regenerates the Section 7 experiment: referential and domain
// checks after inserting 5 000 tuples into the 50 000-tuple FK relation, on
// an 8-node simulated cluster.
func runPerf() {
	fmt.Println("== Section 7: constraint enforcement performance ==")
	fmt.Printf("host: %d CPUs (the paper used an 8-node POOMA; parallel speedup saturates at the host CPU count)\n", runtime.NumCPU())
	cfg := bench.DefaultPaperConfig()
	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cfg.NewCluster(8, parent, child)
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.ApplyInserts("child", newChild); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %-12s %-12s %s\n", "check (8 nodes)", "measured", "paper", "verdict")
	type exp struct {
		rule  string
		diff  bool
		label string
		paper string
		bound time.Duration
	}
	exps := []exp{
		{"referential", false, "referential/full", "< 3 s", 3 * time.Second},
		{"referential", true, "referential/diff", "< 3 s", 3 * time.Second},
		{"domain", false, "domain/full", "< 1 s", time.Second},
		{"domain", true, "domain/diff", "< 1 s", time.Second},
	}
	measured := map[string]time.Duration{}
	for _, e := range exps {
		ip, _ := cat.Program(e.rule)
		prog := ip.Program(e.diff)
		d := medianOf(5, func() {
			res, err := cl.CheckProgram(prog)
			if err != nil {
				log.Fatal(err)
			}
			if res.Violations != 0 {
				log.Fatalf("unexpected violations: %d", res.Violations)
			}
		})
		measured[e.label] = d
		verdict := "within paper bound"
		if d >= e.bound {
			verdict = "EXCEEDS paper bound"
		}
		fmt.Printf("%-22s %-12s %-12s %s\n", e.label, d.Round(10*time.Microsecond), e.paper, verdict)
	}
	ratio := float64(measured["referential/full"]) / float64(measured["domain/full"])
	fmt.Printf("\nreferential/domain cost ratio (full): %.1fx (paper: ~3x)\n\n", ratio)
}

// runSweeps runs the node-count, update-size, strategy and rule-count
// sweeps.
func runSweeps() {
	cfg := bench.DefaultPaperConfig()
	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== F-nodes: parallel scalability (referential, full) ==")
	fmt.Printf("%-8s %-14s\n", "nodes", "median")
	for _, nodes := range []int{1, 2, 4, 8} {
		cl, err := cfg.NewCluster(nodes, parent, child)
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.ApplyInserts("child", newChild); err != nil {
			log.Fatal(err)
		}
		ip, _ := cat.Program("referential")
		prog := ip.Program(false)
		d := medianOf(5, func() {
			if _, err := cl.CheckProgram(prog); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-8d %-14s\n", nodes, d.Round(10*time.Microsecond))
	}

	fmt.Println("\n== F-updatesize: checking cost vs update size (referential, 1 node) ==")
	fmt.Printf("%-8s %-14s %-14s\n", "U", "full", "differential")
	for _, u := range []int{50, 500, 5000} {
		c2 := cfg
		c2.Inserts = u
		p2, ch2, nc2, err := c2.Generate()
		if err != nil {
			log.Fatal(err)
		}
		cl, err := c2.NewCluster(1, p2, ch2)
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.ApplyInserts("child", nc2); err != nil {
			log.Fatal(err)
		}
		ip, _ := cat.Program("referential")
		row := fmt.Sprintf("%-8d", u)
		for _, diff := range []bool{false, true} {
			prog := ip.Program(diff)
			d := medianOf(5, func() {
				if _, err := cl.CheckProgram(prog); err != nil {
					log.Fatal(err)
				}
			})
			row += fmt.Sprintf(" %-13s", d.Round(10*time.Microsecond))
		}
		fmt.Println(row)
	}

	fmt.Println("\n== A-baseline: end-to-end strategy comparison (insert 5000) ==")
	store, err := cfg.NewStore(parent, child)
	if err != nil {
		log.Fatal(err)
	}
	childSchema, _ := cfg.Schema().Relation("child")
	user := txn.New(&algebra.Insert{Rel: "child", Src: algebra.NewLit(childSchema, newChild.Tuples()...)})
	strategies := []struct {
		name string
		run  func() *txn.Result
	}{
		{"unchecked", func() *txn.Result {
			exec := txn.NewExecutor(store.Clone())
			res, err := exec.Exec(user)
			if err != nil {
				log.Fatal(err)
			}
			return res
		}},
		{"modified-full", runModified(cat, store, user, false)},
		{"modified-differential", runModified(cat, store, user, true)},
		{"posthoc-full", func() *txn.Result {
			exec := txn.NewExecutor(store.Clone())
			res, err := baseline.NewPostHoc(cat, false).Exec(exec, user)
			if err != nil {
				log.Fatal(err)
			}
			return res
		}},
	}
	fmt.Printf("%-24s %-14s\n", "strategy", "median")
	for _, s := range strategies {
		d := medianOf(5, func() {
			if res := s.run(); !res.Committed {
				log.Fatalf("%s aborted: %v", s.name, res.AbortReason)
			}
		})
		fmt.Printf("%-24s %-14s\n", s.name, d.Round(10*time.Microsecond))
	}

	fmt.Println("\n== A-ablation-static: modification latency, static vs dynamic ==")
	fmt.Printf("%-8s %-14s %-14s\n", "rules", "static", "dynamic")
	single := txn.New(&algebra.Insert{
		Rel: "child",
		Src: algebra.NewLit(childSchema, relation.Tuple{value.Int(1), value.Int(1), value.Int(1)}),
	})
	for _, n := range []int{1, 4, 16, 64} {
		cat2 := rules.NewCatalog(cfg.Schema())
		for i := 0; i < n; i++ {
			r, err := lang.ParseConstraintRule(fmt.Sprintf("dom%d", i),
				fmt.Sprintf(`forall x (x in child implies x.qty >= %d)`, -i))
			if err != nil {
				log.Fatal(err)
			}
			if err := cat2.Add(r); err != nil {
				log.Fatal(err)
			}
		}
		row := fmt.Sprintf("%-8d", n)
		for _, dyn := range []bool{false, true} {
			sub := core.New(cat2, core.Options{Dynamic: dyn})
			d := medianOf(25, func() {
				if _, _, err := sub.Modify(single); err != nil {
					log.Fatal(err)
				}
			})
			row += fmt.Sprintf(" %-13s", d.Round(time.Microsecond))
		}
		fmt.Println(row)
	}
	fmt.Fprintln(os.Stdout)
}

// runModified returns a strategy closure that modifies the transaction once
// and executes it against a fresh clone of the base state per run.
func runModified(cat *rules.Catalog, store *storage.Database, user *txn.Transaction, diff bool) func() *txn.Result {
	sub := core.New(cat, core.Options{UseDifferential: diff})
	modified, _, err := sub.Modify(user.Clone())
	if err != nil {
		log.Fatal(err)
	}
	return func() *txn.Result {
		exec := txn.NewExecutor(store.Clone())
		res, err := exec.Exec(modified)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
}
