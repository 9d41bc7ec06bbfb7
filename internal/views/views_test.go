package views_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/algebra"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/views"
)

func newViewDB(t *testing.T, incremental bool) *repro.DB {
	t.Helper()
	db := repro.Open(nil)
	db.MustCreateRelation(`relation beer(name string, brewery string, alcohol int)`)
	db.MustCreateRelation(`relation brewery(name string, country string)`)
	db.MustDefineView("strong", `select(beer, alcohol >= 8)`, incremental)
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

func TestViewMaintainedAcrossTransactions(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		name := "recompute"
		if incremental {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			db := newViewDB(t, incremental)
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
	db.MustDefineView("strong", `select(beer, alcohol >= 8)`, false)
	if got := viewRows(t, db, "strong"); got != 1 {
		t.Errorf("view not materialized from existing data: %d rows", got)
	}
}

// defineView compiles a view straight against the beer schema and reports
// the maintenance strategy it got.
func defineView(t *testing.T, def string) *views.View {
	t.Helper()
	sch := schema.MustDatabase()
	for _, ddl := range []string{
		`relation beer(name string, brewery string, alcohol int)`,
		`relation brewery(name string, country string)`,
	} {
		rs, err := lang.ParseRelationSchema(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.Add(rs); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := lang.ParseProgram("q := "+def, sch)
	if err != nil {
		t.Fatal(err)
	}
	v := &views.View{Name: "v", Definition: prog[0].(*algebra.Assign).Expr, Strategy: views.Incremental}
	if _, err := views.Define(v, sch, rules.NewCatalog(sch), nil); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJoinViewIncremental: a join of base relations has exact deltas, so it
// is maintained from them, and stays equal to its definition under inserts
// and deletes on both sides.
func TestJoinViewIncremental(t *testing.T) {
	if v := defineView(t, `join(beer, brewery, #2 = #4)`); !v.IsIncremental() {
		t.Fatal("join view fell back to recompute")
	}
	db := newViewDB(t, false)
	db.MustDefineView("located", `join(beer, brewery, #2 = #4)`, true)
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

// TestProjectedJoinViewRecomputed: a projection can map a deleted tuple
// onto one another witness still produces, so a projected join falls back
// to recompute even when incremental maintenance is requested.
func TestProjectedJoinViewRecomputed(t *testing.T) {
	const def = `project(join(beer, brewery, #2 = #4), #1 as beer, #5 as country)`
	if v := defineView(t, def); v.IsIncremental() {
		t.Fatal("projected join view claimed incremental maintenance")
	}
	db := newViewDB(t, false)
	db.MustDefineView("located", def, true)
	if res, err := db.Submit(`begin
		insert(brewery, values[("x", "be")]);
		insert(beer, values[("quad", "x", 10)]);
	end`); err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	rows, err := db.Query(`located`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][1] != "be" {
		t.Errorf("located = %v", rows.Data)
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

func TestViewAbortRollsBackWithTransaction(t *testing.T) {
	db := newViewDB(t, true)
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
	db := newViewDB(t, false)
	if err := db.DefineView("strong", `beer`, false); err == nil {
		t.Error("duplicate view name accepted")
	}
	if err := db.DefineView("meta", `select(strong, alcohol > 9)`, false); err == nil ||
		!strings.Contains(err.Error(), "views over views") {
		t.Errorf("view over view accepted or wrong error: %v", err)
	}
	if err := db.DefineView("vv", `select(nosuch, #1 > 0)`, false); err == nil {
		t.Error("view over unknown relation accepted")
	}
}

// TestIncrementalEqualsRecompute is the maintenance equivalence property:
// under a random transaction stream of inserts and deletes on both sides of
// a join, the incremental and the recomputed views always hold the same
// contents as evaluating their definitions directly.
func TestIncrementalEqualsRecompute(t *testing.T) {
	const joinDef = `join(beer, select(brewery, country <> "nl"), #2 = #4)`
	rng := rand.New(rand.NewSource(99))
	dbs := map[string]*repro.DB{
		"recompute":   newViewDB(t, false),
		"incremental": newViewDB(t, true),
	}
	for which, db := range dbs {
		db.MustDefineView("located", joinDef, which == "incremental")
	}
	names := []string{"a", "b", "c", "d", "e"}
	breweries := []string{"x", "y", "z"}
	countries := []string{"be", "nl", "de"}
	for step := 0; step < 160; step++ {
		var stmt string
		switch rng.Intn(5) {
		case 0, 1:
			stmt = `insert(beer, values[("` + names[rng.Intn(len(names))] + `", "` +
				breweries[rng.Intn(len(breweries))] + `", ` + itoa(rng.Intn(14)) + `)]);`
		case 2:
			stmt = `delete(beer, select(beer, name = "` + names[rng.Intn(len(names))] + `"));`
		case 3:
			stmt = `insert(brewery, values[("` + breweries[rng.Intn(len(breweries))] + `", "` +
				countries[rng.Intn(len(countries))] + `")]);`
		case 4:
			stmt = `delete(brewery, select(brewery, name = "` + breweries[rng.Intn(len(breweries))] + `"));`
		}
		src := "begin " + stmt + " end"
		for which, db := range dbs {
			res, err := db.Submit(src)
			if err != nil {
				t.Fatalf("%s step %d: %v", which, step, err)
			}
			if !res.Committed {
				t.Fatalf("%s step %d aborted: %s", which, step, res.Reason)
			}
		}
		// Every view must equal its definition evaluated fresh.
		for which, db := range dbs {
			context := which + " step " + itoa(step) + ": " + src
			assertViewEquals(t, db, "strong", `select(beer, alcohol >= 8)`, context)
			assertViewEquals(t, db, "located", joinDef, context)
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
