package views_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro"
)

func newViewDB(t *testing.T) *repro.DB {
	t.Helper()
	db := repro.Open(nil)
	db.MustCreateRelation(`relation beer(name string, brewery string, alcohol int)`)
	db.MustCreateRelation(`relation brewery(name string, country string)`)
	db.MustDefineView("strong", `select(beer, alcohol >= 8)`)
	return db
}

func viewRows(t *testing.T, db *repro.DB, name string) int {
	t.Helper()
	n, err := db.Count(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestViewMaintainedAcrossTransactions runs one script through both
// maintenance programs a view can get: a selection is maintained from its
// deltas, and an intersection, which has no Δ form, is recomputed. The
// definition decides which; both views stay at the selection's rows.
func TestViewMaintainedAcrossTransactions(t *testing.T) {
	for _, tc := range []struct {
		name, def string
		recompute bool
	}{
		{"recompute", `intersect(beer, select(beer, alcohol >= 8))`, true},
		{"incremental", `select(beer, alcohol >= 8)`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := repro.Open(nil)
			db.MustCreateRelation(`relation beer(name string, brewery string, alcohol int)`)
			db.MustDefineView("strong", tc.def)
			if got := recomputes(t, db, "strong"); got != tc.recompute {
				t.Fatalf("view %s: recomputed = %v, want %v", tc.def, got, tc.recompute)
			}
			if res, err := db.Submit(`begin
				insert(beer, values[("quad", "x", 10), ("pils", "y", 5), ("imperial", "z", 9)]);
			end`); err != nil || !res.Committed {
				t.Fatalf("insert: res=%+v err=%v", res, err)
			}
			if got := viewRows(t, db, "strong"); got != 2 {
				t.Errorf("strong after inserts = %d, want 2", got)
			}
			if res, err := db.Submit(`begin
				delete(beer, select(beer, name = "quad"));
			end`); err != nil || !res.Committed {
				t.Fatalf("delete: res=%+v err=%v", res, err)
			}
			if got := viewRows(t, db, "strong"); got != 1 {
				t.Errorf("strong after delete = %d, want 1", got)
			}
			if res, err := db.Submit(`begin
				update(beer, name = "pils", [alcohol = 12]);
			end`); err != nil || !res.Committed {
				t.Fatalf("update: res=%+v err=%v", res, err)
			}
			if got := viewRows(t, db, "strong"); got != 2 {
				t.Errorf("strong after update = %d, want 2", got)
			}
		})
	}
}

func TestViewInitialMaterialization(t *testing.T) {
	db := repro.Open(nil)
	db.MustCreateRelation(`relation beer(name string, brewery string, alcohol int)`)
	if res, err := db.Submit(`begin
		insert(beer, values[("quad", "x", 10)]);
	end`); err != nil || !res.Committed {
		t.Fatalf("seed: res=%+v err=%v", res, err)
	}
	db.MustDefineView("strong", `select(beer, alcohol >= 8)`)
	if got := viewRows(t, db, "strong"); got != 1 {
		t.Errorf("view not materialized from existing data: %d rows", got)
	}
}

// recomputes reports whether a view's maintenance program re-evaluates its
// whole definition rather than applying the transaction's deltas.
func recomputes(t *testing.T, db *repro.DB, view string) bool {
	t.Helper()
	prog, err := db.EnforcementProgram("view:" + view)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(prog, "delete("+view+", "+view+")")
}

// TestJoinViewIncremental: a join of base relations has exact deltas, so it
// is maintained from them, and stays equal to its definition under inserts
// and deletes on both sides.
func TestJoinViewIncremental(t *testing.T) {
	db := newViewDB(t)
	db.MustDefineView("located", `join(beer, brewery, #2 = #4)`)
	if recomputes(t, db, "located") {
		t.Fatal("join view is recomputed")
	}
	for _, src := range []string{
		`begin insert(brewery, values[("x", "be"), ("y", "nl")]); insert(beer, values[("quad", "x", 10)]); end`,
		`begin insert(beer, values[("pils", "y", 5), ("ale", "x", 6)]); end`,
		`begin delete(brewery, select(brewery, name = "y")); end`,
		`begin delete(beer, select(beer, name = "quad")); insert(brewery, values[("z", "de")]); end`,
	} {
		if res, err := db.Submit(src); err != nil || !res.Committed {
			t.Fatalf("%s: res=%+v err=%v", src, res, err)
		}
		assertViewEquals(t, db, "located", `join(beer, brewery, #2 = #4)`, src)
	}
}

// TestProjectedJoinViewIncremental: a projection can map a deleted tuple
// onto one another witness still produces. The projected join is still
// maintained from deltas, its Δ⁻ restricted to what the new state no
// longer produces, and stays equal to its definition.
func TestProjectedJoinViewIncremental(t *testing.T) {
	const def = `project(join(beer, brewery, #2 = #4), #1 as beer, #5 as country)`
	db := newViewDB(t)
	db.MustDefineView("located", def)
	if recomputes(t, db, "located") {
		t.Fatal("projected join view is recomputed")
	}
	for _, src := range []string{
		`begin insert(brewery, values[("x", "be")]); insert(beer, values[("quad", "x", 10)]); end`,
		// A second brewery in "be" gives (quad, be) a second witness.
		`begin insert(brewery, values[("y", "be")]); insert(beer, values[("quad", "y", 9)]); end`,
		`begin delete(beer, select(beer, brewery = "x")); end`,
		`begin delete(brewery, select(brewery, name = "y")); end`,
	} {
		if res, err := db.Submit(src); err != nil || !res.Committed {
			t.Fatalf("%s: res=%+v err=%v", src, res, err)
		}
		assertViewEquals(t, db, "located", def, src)
	}
	if got := viewRows(t, db, "located"); got != 0 {
		t.Errorf("located keeps %d rows after its last witness left", got)
	}
}

// TestNoDeltaFormViewsRecomputed: an aggregate and a set difference have
// no Δ form, so their views are recomputed, and stay equal to their
// definitions.
func TestNoDeltaFormViewsRecomputed(t *testing.T) {
	defs := map[string]string{
		"beers":    `cnt(beer)`,
		"orphaned": `diff(project(beer, brewery), project(brewery, name))`,
	}
	db := newViewDB(t)
	for v, def := range defs {
		db.MustDefineView(v, def)
		if !recomputes(t, db, v) {
			t.Fatalf("view %s = %s is not recomputed", v, def)
		}
	}
	for _, src := range []string{
		`begin insert(beer, values[("quad", "x", 10), ("pils", "y", 5)]); end`,
		`begin insert(brewery, values[("x", "be")]); end`,
		`begin delete(beer, select(beer, name = "pils")); end`,
		`begin delete(brewery, select(brewery, name = "x")); insert(beer, values[("ale", "z", 6)]); end`,
	} {
		if res, err := db.Submit(src); err != nil || !res.Committed {
			t.Fatalf("%s: res=%+v err=%v", src, res, err)
		}
		for v, def := range defs {
			assertViewEquals(t, db, v, def, src)
		}
	}
}

// TestSelectJoinViewProgramsPinned pins the maintenance programs of
// selection and join views: they are exact without a restriction against
// the new state.
func TestSelectJoinViewProgramsPinned(t *testing.T) {
	db := newViewDB(t)
	db.MustDefineView("located", `join(beer, brewery, #2 = #4)`)
	db.MustDefineView("dutch", `join(beer, select(brewery, country <> "nl"), #2 = #4)`)
	db.MustDefineView("strongLocated", `select(join(beer, brewery, #2 = #4), alcohol > 5)`)
	for view, want := range map[string]string{
		"strong": "delete(strong, select(del(beer), alcohol >= 8));\n" +
			"insert(strong, select(ins(beer), alcohol >= 8));\n",
		"located": "delete(located, join(del(beer), old(brewery), brewery = brewery.name));\n" +
			"delete(located, join(old(beer), del(brewery), brewery = brewery.name));\n" +
			"insert(located, join(ins(beer), brewery, brewery = brewery.name));\n" +
			"insert(located, join(beer, ins(brewery), brewery = brewery.name));\n",
		"dutch": "delete(dutch, join(del(beer), select(old(brewery), country <> \"nl\"), brewery = brewery.name));\n" +
			"delete(dutch, join(old(beer), select(del(brewery), country <> \"nl\"), brewery = brewery.name));\n" +
			"insert(dutch, join(ins(beer), select(brewery, country <> \"nl\"), brewery = brewery.name));\n" +
			"insert(dutch, join(beer, select(ins(brewery), country <> \"nl\"), brewery = brewery.name));\n",
		"strongLocated": "delete(strongLocated, select(join(del(beer), old(brewery), brewery = brewery.name), alcohol > 5));\n" +
			"delete(strongLocated, select(join(old(beer), del(brewery), brewery = brewery.name), alcohol > 5));\n" +
			"insert(strongLocated, select(join(ins(beer), brewery, brewery = brewery.name), alcohol > 5));\n" +
			"insert(strongLocated, select(join(beer, ins(brewery), brewery = brewery.name), alcohol > 5));\n",
	} {
		got, err := db.EnforcementProgram("view:" + view)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("view %s maintenance program\n%s\nwant\n%s", view, got, want)
		}
	}
}

// assertViewEquals compares a view's rows with its definition evaluated
// fresh.
func assertViewEquals(t *testing.T, db *repro.DB, view, def, context string) {
	t.Helper()
	want, err := db.Query(def)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(view)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := rowSet(want), rowSet(got); w != g {
		t.Fatalf("%s: view %s holds\n%s\ndefinition gives\n%s", context, view, g, w)
	}
}

func rowSet(r *repro.Rows) string {
	lines := make([]string, len(r.Data))
	for i, row := range r.Data {
		lines[i] = fmt.Sprint(row...)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestViewMaintainedAfterRepairs: a repair rule that rewrites a source
// after the user's statements must not leave a view stale. The views are
// defined before the rule, so catalog order alone would run their
// maintenance before the repair; maintenance runs once, after it.
func TestViewMaintainedAfterRepairs(t *testing.T) {
	db := repro.Open(nil)
	db.MustCreateRelation(`relation stock(id int, qty int)`)
	defs := map[string]string{
		"negative": `select(stock, qty < 0)`,
		"qtys":     `project(stock, qty)`,
	}
	for v, def := range defs {
		db.MustDefineView(v, def)
	}
	db.MustDefineConstraint("nonneg", `forall x (x in stock implies x.qty >= 0) on violation clamp`)
	const src = `begin insert(stock, values[(1, -5), (2, 3)]); end`
	text, _, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range defs {
		if n := strings.Count(text, "insert("+v+","); n != 1 {
			t.Errorf("view %s maintained %d times in\n%s", v, n, text)
		}
	}
	if res, err := db.Submit(src); err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	for v, def := range defs {
		assertViewEquals(t, db, v, def, src)
	}
}

func TestViewAbortRollsBackWithTransaction(t *testing.T) {
	db := newViewDB(t)
	db.MustDefineConstraint("pos", `forall x (x in beer implies x.alcohol >= 0)`)
	res, err := db.Submit(`begin
		insert(beer, values[("ghost", "g", 9)]);
		insert(beer, values[("bad", "g", -1)]);
	end`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("violating transaction committed")
	}
	if got := viewRows(t, db, "strong"); got != 0 {
		t.Errorf("view kept aborted tuples: %d", got)
	}
}

func TestViewValidationErrors(t *testing.T) {
	db := newViewDB(t)
	if err := db.DefineView("strong", `beer`); err == nil {
		t.Error("duplicate view name accepted")
	}
	if err := db.DefineView("meta", `select(strong, alcohol > 9)`); err == nil ||
		!strings.Contains(err.Error(), "views over views") {
		t.Errorf("view over view accepted or wrong error: %v", err)
	}
	if err := db.DefineView("vv", `select(nosuch, #1 > 0)`); err == nil {
		t.Error("view over unknown relation accepted")
	}
}

// assertReadOnly requires err to be the read-only refusal naming view.
func assertReadOnly(t *testing.T, err error, view string) {
	t.Helper()
	if !errors.Is(err, repro.ErrViewReadOnly) || !strings.Contains(err.Error(), view) {
		t.Fatalf("err = %v, want ErrViewReadOnly naming view %s", err, view)
	}
}

// TestSubmitIntoViewRefused: a transaction that writes a view's backing
// relation would leave the view different from its definition.
func TestSubmitIntoViewRefused(t *testing.T) {
	db := newViewDB(t)
	for _, src := range []string{
		`begin insert(strong, values[("ghost", "g", 9)]); end`,
		`begin insert(beer, values[("quad", "x", 10)]); delete(strong, strong); end`,
		`begin update(strong, alcohol > 0, [alcohol = 1]); end`,
	} {
		res, err := db.Submit(src)
		assertReadOnly(t, err, "strong")
		if res != nil {
			t.Fatalf("%s: refused submit returned %+v", src, res)
		}
		if _, _, err := db.Explain(src); !errors.Is(err, repro.ErrViewReadOnly) {
			t.Fatalf("%s: Explain err = %v", src, err)
		}
		assertViewEquals(t, db, "strong", `select(beer, alcohol >= 8)`, src)
	}
	if db.LogicalTime() != 1 { // the view's initial materialization
		t.Errorf("refused submits committed: logical time %d", db.LogicalTime())
	}
}

// TestLoadIntoViewRefused: Load bypasses transaction modification, so a
// view's backing relation cannot be loaded.
func TestLoadIntoViewRefused(t *testing.T) {
	db := newViewDB(t)
	assertReadOnly(t, db.Load("strong", [][]any{{"ghost", "g", 9}}), "strong")
	assertViewEquals(t, db, "strong", `select(beer, alcohol >= 8)`, "load")
}

// TestLoadIntoViewSourceRefused: a Load into a relation a view reads would
// change the definition's value without maintaining the view.
func TestLoadIntoViewSourceRefused(t *testing.T) {
	db := newViewDB(t)
	assertReadOnly(t, db.Load("beer", [][]any{{"quad", "x", 10}}), "strong")
	assertViewEquals(t, db, "strong", `select(beer, alcohol >= 8)`, "load")
	if err := db.Load("brewery", [][]any{{"x", "be"}}); err != nil {
		t.Errorf("load into a relation no view reads: %v", err)
	}
}

// TestDropViewProgramRefused: dropping a view's maintenance program would
// leave the view unmaintained.
func TestDropViewProgramRefused(t *testing.T) {
	db := newViewDB(t)
	assertReadOnly(t, db.DropRule("view:strong"), "strong")
	if res, err := db.Submit(`begin insert(beer, values[("quad", "x", 10)]); end`); err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	assertViewEquals(t, db, "strong", `select(beer, alcohol >= 8)`, "after refused drop")
}

// assertRuleRefused requires define's error to be the read-only refusal
// naming view, and the rule to be absent from the catalog afterwards.
func assertRuleRefused(t *testing.T, db *repro.DB, rule string, err error, view string) {
	t.Helper()
	assertReadOnly(t, err, view)
	if !strings.Contains(err.Error(), rule) {
		t.Fatalf("err = %v, want it to name rule %s", err, rule)
	}
	if _, terr := db.RuleTriggers(rule); terr == nil {
		t.Fatalf("refused rule %s stayed in the catalog", rule)
	}
}

// TestConstraintOverViewRefused: a check over a view would be compiled
// against the view's backing relation, whose only writer raises no
// triggers, so the check would never run and a violating insert into the
// source would commit.
func TestConstraintOverViewRefused(t *testing.T) {
	db := newViewDB(t)
	err := db.DefineConstraint("mild", `forall s (s in strong implies s.alcohol < 12)`)
	assertRuleRefused(t, db, "mild", err, "strong")
}

// TestRuleTriggeredByViewRefused: an explicit trigger on a view names an
// update no transaction can raise.
func TestRuleTriggeredByViewRefused(t *testing.T) {
	db := newViewDB(t)
	err := db.DefineRule("onStrong", `when INS(strong)
		if not forall b (b in beer implies b.alcohol >= 0)
		then abort`)
	assertRuleRefused(t, db, "onStrong", err, "strong")
}

// TestRuleActionReadingViewRefused: an action runs inside the modified
// transaction before the view's deferred maintenance, so a view it reads
// can be stale.
func TestRuleActionReadingViewRefused(t *testing.T) {
	db := newViewDB(t)
	err := db.DefineRule("capStrong", `
		if not forall b (b in beer implies b.alcohol < 20)
		then
			hot := project(strong, name);
			delete(beer, select(beer, alcohol >= 20))`)
	assertRuleRefused(t, db, "capStrong", err, "strong")
}

// TestRuleActionWritingViewRefused: an action that writes a view leaves it
// different from its definition for good.
func TestRuleActionWritingViewRefused(t *testing.T) {
	db := newViewDB(t)
	err := db.DefineRule("fakeStrong", `
		if not forall b (b in beer implies b.alcohol < 20)
		then insert(strong, values[("ghost", "g", 9)])`)
	assertRuleRefused(t, db, "fakeStrong", err, "strong")
}

// TestRuleWritingViewSourceAllowed: a repair of a view's source is legal,
// because the view's program runs after every repair.
func TestRuleWritingViewSourceAllowed(t *testing.T) {
	db := newViewDB(t)
	if err := db.DefineRule("capBeer", `
		if not forall b (b in beer implies b.alcohol < 20)
		then delete(beer, select(beer, alcohol >= 20))`); err != nil {
		t.Fatal(err)
	}
	src := `begin insert(beer, values[("quad", "x", 10), ("fire", "x", 25)]); end`
	if res, err := db.Submit(src); err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	assertViewEquals(t, db, "strong", `select(beer, alcohol >= 8)`, src)
	if got := viewRows(t, db, "strong"); got != 1 {
		t.Fatalf("strong holds %d rows after the repair, want 1", got)
	}
}

// TestIncrementalEqualsRecompute is the maintenance equivalence property:
// under a random stream of inserts, deletes and updates on both sources,
// every view — selection, join, projected join, union of projections,
// semijoin and antijoin — always holds exactly what evaluating its
// definition gives. Repeated beer names and shared breweries and countries
// make deletes that leave a second witness common.
func TestIncrementalEqualsRecompute(t *testing.T) {
	defs := map[string]string{
		"strong":    `select(beer, alcohol >= 8)`,
		"located":   `join(beer, select(brewery, country <> "nl"), #2 = #4)`,
		"countries": `project(join(beer, brewery, #2 = #4), #5 as country)`,
		"names":     `union(project(beer, name), project(brewery, name))`,
		"brewed":    `semijoin(brewery, beer, #1 = #4)`,
		"orphans":   `antijoin(beer, brewery, #2 = #4)`,
	}
	rng := rand.New(rand.NewSource(99))
	db := newViewDB(t)
	for v, def := range defs {
		if v != "strong" {
			db.MustDefineView(v, def)
		}
		if recomputes(t, db, v) {
			t.Fatalf("view %s = %s is recomputed", v, def)
		}
	}
	names := []string{"a", "b", "c", "x", "y"}
	breweries := []string{"x", "y", "z"}
	countries := []string{"be", "nl", "de"}
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	for step := 0; step < 200; step++ {
		var stmt string
		switch rng.Intn(7) {
		case 0, 1:
			stmt = `insert(beer, values[("` + pick(names) + `", "` + pick(breweries) + `", ` + itoa(rng.Intn(14)) + `)]);`
		case 2:
			stmt = `delete(beer, select(beer, name = "` + pick(names) + `"));`
		case 3:
			stmt = `insert(brewery, values[("` + pick(breweries) + `", "` + pick(countries) + `")]);`
		case 4:
			stmt = `delete(brewery, select(brewery, name = "` + pick(breweries) + `"));`
		case 5:
			stmt = `update(beer, name = "` + pick(names) + `", [brewery = "` + pick(breweries) + `"]);`
		case 6:
			stmt = `update(brewery, name = "` + pick(breweries) + `", [country = "` + pick(countries) + `"]);`
		}
		src := "begin " + stmt + " end"
		res, err := db.Submit(src)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !res.Committed {
			t.Fatalf("step %d aborted: %s", step, res.Reason)
		}
		for v, def := range defs {
			assertViewEquals(t, db, v, def, "step "+itoa(step)+": "+src)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}
