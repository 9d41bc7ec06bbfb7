// Command experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (constraint construct translation), Example 5.1
// (transaction modification), the Section 7 performance claims, and the
// ablation sweeps. With no flag it runs every section; EXPERIMENTS.md at the
// repository root is one such run with the paper's claims beside it.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/cmd/experiments/internal/baseline"
	"repro/cmd/experiments/internal/bench"
	"repro/cmd/experiments/internal/fragment"
	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/txn"
	"repro/internal/value"
)

// defaultEngine is the enforcement configuration every repro.DB runs.
var defaultEngine = core.Options{UseDifferential: true, Prune: true}

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table 1 (constraint translation)")
		example51 = flag.Bool("example51", false, "regenerate Example 5.1 (transaction modification)")
		perf      = flag.Bool("perf", false, "regenerate the Section 7 performance experiment")
		sweeps    = flag.Bool("sweeps", false, "run the ablation sweeps")
	)
	flag.Parse()
	all := !*table1 && !*example51 && !*perf && !*sweeps
	w := os.Stdout
	if all || *table1 {
		runTable1(w)
	}
	if all || *example51 {
		runExample51(w)
	}
	if all || *perf || *sweeps {
		fmt.Fprintf(w, "host: %s %s/%s, %d CPUs\n\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	}
	if all || *perf {
		runPerf(w)
	}
	if all || *sweeps {
		runSweeps(w)
	}
}

// runTable1 translates the seven construct classes of Table 1 and prints the
// produced algebra next to the paper's forms. Semijoin/antijoin forms are
// emptiness-equivalent to the paper's π/∩/− renderings.
func runTable1(w io.Writer) {
	fmt.Fprintln(w, "== Table 1: translation of typical constraint constructs ==")
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
		cond, err := lang.ParseConstraint(row.cl)
		if err != nil {
			log.Fatalf("row %d parse: %v", i+1, err)
		}
		info, err := calculus.Validate(cond, sch)
		if err != nil {
			log.Fatalf("row %d validate: %v", i+1, err)
		}
		res, err := translate.Condition(cond, info, sch, fmt.Sprintf("c%d", i+1))
		if err != nil {
			log.Fatalf("row %d translate: %v", i+1, err)
		}
		fmt.Fprintf(w, "row %d\n  CL:    %s\n  paper: %s\n  ours:  %s", i+1, row.cl, row.paper, res.Program)
		fmt.Fprintf(w, "  class: %s\n\n", res.Parts[0].Class)
	}
}

// runExample51 rebuilds the beer database and modifies the paper's example
// transaction twice over one catalog: in the paper's form (every triggered
// rule's full-state program), and as the default engine (repro.Open) does,
// differential with the checks the safety analyzer proves unnecessary
// elided.
func runExample51(w io.Writer) {
	fmt.Fprintln(w, "== Example 5.1: transaction modification ==")
	sch := schema.MustDatabase()
	for _, ddl := range []string{
		`relation beer(name string, type string, brewery string, alcohol int)`,
		`relation brewery(name string, city string, country string)`,
	} {
		rs, err := lang.ParseRelationSchema(ddl)
		if err != nil {
			log.Fatal(err)
		}
		if err := sch.Add(rs); err != nil {
			log.Fatal(err)
		}
	}
	r1, err := lang.ParseConstraintRule("R1", `forall x (x in beer implies x.alcohol >= 0)`)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := lang.ParseRule("R2", `
		if not forall x (x in beer implies
			exists y (y in brewery and x.brewery = y.name))
		then
			temp := diff(project(beer, brewery), project(brewery, name));
			insert(brewery, project(temp, #1 as name, null as city, null as country))`, sch)
	if err != nil {
		log.Fatal(err)
	}
	cat := rules.NewCatalog(sch)
	for _, r := range []*rules.Rule{r1, r2} {
		if err := cat.Add(r); err != nil {
			log.Fatal(err)
		}
	}

	for _, e := range []struct {
		label string
		opts  core.Options
	}{
		{"paper's form, full-state checks", core.Options{}},
		{"default engine, differential and pruned", defaultEngine},
	} {
		prog, err := lang.ParseTransaction(`begin
			insert(beer, values[("exportgold", "stout", "guineken", 6)]);
		end`, sch)
		if err != nil {
			log.Fatal(err)
		}
		modified, rep, err := core.New(cat, e.opts).Modify(txn.Bracket(prog))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s (depth %d, %d -> %d statements, %d check(s) elided):\n%s\n\n",
			e.label, rep.Depth, rep.OriginalStmts, rep.FinalStmts, rep.ChecksElided, modified)
	}
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
// an 8-node simulated cluster. The paper used an 8-node POOMA; the
// simulation's parallel speedup saturates at the host CPU count.
func runPerf(w io.Writer) {
	fmt.Fprintln(w, "== Section 7: constraint enforcement performance ==")
	cfg := bench.DefaultPaperConfig()
	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	cl := loadedCluster(cfg, 8, parent, child, newChild)

	fmt.Fprintf(w, "%-22s %-12s %-12s %s\n", "check (8 nodes)", "measured", "paper", "verdict")
	exps := []struct {
		rule  string
		diff  bool
		label string
		paper string
		bound time.Duration
	}{
		{"referential", false, "referential/full", "< 3 s", 3 * time.Second},
		{"referential", true, "referential/diff", "< 3 s", 3 * time.Second},
		{"domain", false, "domain/full", "< 1 s", time.Second},
		{"domain", true, "domain/diff", "< 1 s", time.Second},
	}
	measured := map[string]time.Duration{}
	for _, e := range exps {
		ip, _ := cat.Program(e.rule)
		d := medianCheck(cl, ip.Program(e.diff))
		measured[e.label] = d
		verdict := "within paper bound"
		if d >= e.bound {
			verdict = "EXCEEDS paper bound"
		}
		fmt.Fprintf(w, "%-22s %-12s %-12s %s\n", e.label, d.Round(10*time.Microsecond), e.paper, verdict)
	}
	ratio := float64(measured["referential/full"]) / float64(measured["domain/full"])
	fmt.Fprintf(w, "\nreferential/domain cost ratio (full): %.1fx (paper: ~3x)\n\n", ratio)
}

// runSweeps runs the node-count, update-size, strategy, rule-count,
// catalog-size and view-maintenance sweeps.
func runSweeps(w io.Writer) {
	cfg := bench.DefaultPaperConfig()
	parent, child, newChild, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		log.Fatal(err)
	}

	ref, _ := cat.Program("referential")
	fmt.Fprintln(w, "== F-nodes: parallel scalability (referential, full) ==")
	fmt.Fprintf(w, "%-8s %s\n", "nodes", "median")
	for _, nodes := range []int{1, 2, 4, 8} {
		d := medianCheck(loadedCluster(cfg, nodes, parent, child, newChild), ref.Program(false))
		fmt.Fprintf(w, "%-8d %s\n", nodes, d.Round(10*time.Microsecond))
	}

	fmt.Fprintln(w, "\n== F-updatesize: checking cost vs update size (referential, 1 node) ==")
	fmt.Fprintf(w, "%-8s %-14s %s\n", "U", "full", "differential")
	for _, u := range []int{50, 500, 5000} {
		c2 := cfg
		c2.Inserts = u
		p2, ch2, nc2, err := c2.Generate()
		if err != nil {
			log.Fatal(err)
		}
		cl := loadedCluster(c2, 1, p2, ch2, nc2)
		row := fmt.Sprintf("%-8d", u)
		for _, diff := range []bool{false, true} {
			row += fmt.Sprintf(" %-14s", medianCheck(cl, ref.Program(diff)).Round(10*time.Microsecond))
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}

	fmt.Fprintln(w, "\n== A-baseline: end-to-end strategy comparison (insert 5000) ==")
	store, err := cfg.NewStore(parent, child)
	if err != nil {
		log.Fatal(err)
	}
	childSchema, _ := cfg.Schema().Relation("child")
	user := txn.New(&algebra.Insert{Rel: "child", Src: algebra.NewLit(childSchema, newChild.Tuples()...)})
	strategies := []struct {
		name string
		run  func(*txn.Executor) (*txn.Result, error)
	}{
		{"unchecked", func(exec *txn.Executor) (*txn.Result, error) { return exec.Exec(user) }},
		{"modified-full", runModified(cat, user, core.Options{})},
		{"modified-differential", runModified(cat, user, core.Options{UseDifferential: true})},
		{"modified-default", runModified(cat, user, defaultEngine)},
		{"posthoc-full", func(exec *txn.Executor) (*txn.Result, error) {
			return baseline.NewPostHoc(cat).Exec(exec, user)
		}},
	}
	fmt.Fprintf(w, "%-24s %s\n", "strategy", "median")
	for _, s := range strategies {
		d := medianOf(5, func() {
			res, err := s.run(txn.NewExecutor(store.Clone()))
			if err != nil {
				log.Fatal(err)
			}
			if !res.Committed {
				log.Fatalf("%s aborted: %v", s.name, res.AbortReason)
			}
		})
		fmt.Fprintf(w, "%-24s %s\n", s.name, d.Round(10*time.Microsecond))
	}

	fmt.Fprintln(w, "\n== A-ablation-static: modification latency, static vs dynamic ==")
	fmt.Fprintf(w, "%-8s %-14s %s\n", "rules", "static", "dynamic")
	single := txn.New(&algebra.Insert{
		Rel: "child",
		Src: algebra.NewLit(childSchema, relation.Tuple{value.Int(1), value.Int(1), value.Int(1)}),
	})
	for _, n := range []int{1, 4, 16, 64} {
		cat2 := domainCatalog(cfg.Schema(), n, n)
		row := fmt.Sprintf("%-8d", n)
		for _, dyn := range []bool{false, true} {
			sub := core.New(cat2, core.Options{Dynamic: dyn})
			row += fmt.Sprintf(" %-14s", medianModify(sub, single).Round(time.Microsecond))
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}

	// Modification is selection (Alg. 6.2): its cost should follow the
	// triggered rules, not the catalog. Two rules constrain child and the
	// rest parent, so the one-tuple child insert selects two at every size.
	fmt.Fprintln(w, "\n== A-catalog-size: modification latency vs catalog size (2 rules triggered) ==")
	fmt.Fprintf(w, "%-8s %-10s %-14s %s\n", "rules", "selected", "paper", "default")
	for _, n := range []int{10, 100, 1000} {
		cat2 := domainCatalog(cfg.Schema(), n, 2)
		_, rep, err := core.New(cat2, core.Options{}).Modify(single)
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%-8d %-10d", n, len(rep.RulesTriggered))
		for _, opts := range []core.Options{{}, defaultEngine} {
			sub := core.New(cat2, opts)
			row += fmt.Sprintf(" %-14s", medianModify(sub, single).Round(100*time.Nanosecond))
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}

	fmt.Fprintln(w, "\n== A-views: view maintenance per Submit (insert into a 50 000-row source) ==")
	fmt.Fprintf(w, "%-11s %-14s %s\n", "view", "maintenance", "median")
	for _, view := range []struct{ name, def string }{
		{"selection", `select(orders, amount >= 900)`},
		{"join", `join(orders, regions, #2 = #4)`},
	} {
		for _, incremental := range []bool{false, true} {
			name := "recompute"
			if incremental {
				name = "incremental"
			}
			fmt.Fprintf(w, "%-11s %-14s %s\n", view.name, name, medianViewSubmit(view.def, incremental).Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w)
}

// domainCatalog returns a catalog of n domain rules over the paper schema:
// the first onChild constrain child, which a child insert triggers, and the
// rest constrain parent.
func domainCatalog(sch *schema.Database, n, onChild int) *rules.Catalog {
	cat := rules.NewCatalog(sch)
	for i := 0; i < n; i++ {
		cond := fmt.Sprintf(`forall x (x in parent implies x.id >= %d)`, -i)
		if i < onChild {
			cond = fmt.Sprintf(`forall x (x in child implies x.qty >= %d)`, -i)
		}
		r, err := lang.ParseConstraintRule(fmt.Sprintf("dom%d", i), cond)
		if err != nil {
			log.Fatal(err)
		}
		if err := cat.Add(r); err != nil {
			log.Fatal(err)
		}
	}
	return cat
}

// medianModify returns the median latency of modifying t, over enough runs
// that microsecond timings settle.
func medianModify(sub *core.Subsystem, t *txn.Transaction) time.Duration {
	return medianOf(101, func() {
		if _, _, err := sub.Modify(t); err != nil {
			log.Fatal(err)
		}
	})
}

// medianViewSubmit loads a 50 000-row source relation and a two-row region
// table under one view and returns the median latency of a one-row insert
// Submit into the source.
func medianViewSubmit(def string, incremental bool) time.Duration {
	db := repro.Open(nil)
	defer db.Close()
	db.MustCreateRelation(`relation orders(id int, region string, amount int)`)
	db.MustCreateRelation(`relation regions(name string, zone string)`)
	rows := make([][]any, 50000)
	for i := range rows {
		rows[i] = []any{i, "eu", i % 1000}
	}
	if err := db.Load("orders", rows); err != nil {
		log.Fatal(err)
	}
	if err := db.Load("regions", [][]any{{"eu", "emea"}, {"us", "amer"}}); err != nil {
		log.Fatal(err)
	}
	if err := db.DefineView("big", def, incremental); err != nil {
		log.Fatal(err)
	}
	next := 100000
	return medianOf(25, func() {
		res, err := db.Submit(fmt.Sprintf(`begin insert(orders, values[(%d, "us", %d)]); end`, next, next%1000))
		if err != nil {
			log.Fatal(err)
		}
		if !res.Committed {
			log.Fatalf("view insert aborted: %s", res.Reason)
		}
		next++
	})
}

// runModified returns a strategy that executes the transaction as modified
// once, up front, under opts.
func runModified(cat *rules.Catalog, user *txn.Transaction, opts core.Options) func(*txn.Executor) (*txn.Result, error) {
	modified, _, err := core.New(cat, opts).Modify(user.Clone())
	if err != nil {
		log.Fatal(err)
	}
	return func(exec *txn.Executor) (*txn.Result, error) { return exec.Exec(modified) }
}

// loadedCluster returns an n-node cluster over the base state with the
// insert batch applied.
func loadedCluster(cfg bench.PaperConfig, nodes int, parent, child, newChild *relation.Relation) *fragment.Cluster {
	cl, err := cfg.NewCluster(nodes, parent, child)
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.ApplyInserts("child", newChild); err != nil {
		log.Fatal(err)
	}
	return cl
}

// medianCheck returns the median time of running the alarm program on the
// cluster; the workload is consistent, so a violation is fatal.
func medianCheck(cl *fragment.Cluster, prog algebra.Program) time.Duration {
	return medianOf(5, func() {
		res, err := cl.CheckProgram(prog)
		if err != nil {
			log.Fatal(err)
		}
		if res.Violations != 0 {
			log.Fatalf("unexpected violations: %d", res.Violations)
		}
	})
}
