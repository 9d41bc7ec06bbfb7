package repro

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
)

// newBeerDB builds the paper's example database through the public string
// API, with rules R1 (aborting domain) and R2 (compensating referential).
func newBeerDB(t testing.TB, opts *Options) *DB {
	t.Helper()
	db := Open(opts)
	db.MustCreateRelation(`relation beer(name string, type string, brewery string, alcohol int)`)
	db.MustCreateRelation(`relation brewery(name string, city string, country string)`)
	db.MustDefineConstraint("R1", `forall x (x in beer implies x.alcohol >= 0)`)
	db.MustDefineRule("R2", `
		if not forall x (x in beer implies
			exists y (y in brewery and x.brewery = y.name))
		then
			temp := diff(project(beer, brewery), project(brewery, name));
			insert(brewery, project(temp, #1 as name, null as city, null as country))`)
	return db
}

func TestPublicAPIExample51(t *testing.T) {
	db := newBeerDB(t, nil)

	trig, err := db.RuleTriggers("R2")
	if err != nil {
		t.Fatalf("RuleTriggers: %v", err)
	}
	if trig != "INS(beer), DEL(brewery)" {
		t.Errorf("R2 triggers = %q, want %q", trig, "INS(beer), DEL(brewery)")
	}

	res, err := db.Submit(`begin
		insert(beer, values[("exportgold", "stout", "guineken", 6)]);
	end`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	// R1's alarm is elided: the inserted constant 6 provably satisfies
	// alcohol >= 0, so only R2's two compensating statements are appended
	// (core.TestExample51Modification pins the paper's 4-statement form).
	if rep := res.Report; rep.Depth != 1 || rep.FinalStmts != 3 || rep.ChecksElided != 1 {
		t.Errorf("report = %+v, want depth 1, 3 final statements and 1 check elided", rep)
	}

	rows, err := db.Query(`brewery`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("brewery rows = %d, want 1 (compensated)", len(rows.Data))
	}
	if rows.Data[0][0] != "guineken" || rows.Data[0][1] != nil {
		t.Errorf("compensated row = %v, want [guineken <nil> <nil>]", rows.Data[0])
	}
}

func TestPublicAPIDomainAbort(t *testing.T) {
	db := newBeerDB(t, nil)
	res, err := db.Submit(`begin
		insert(beer, values[("acid", "sour", "ghost", -1)]);
	end`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Committed {
		t.Fatal("committed despite violation")
	}
	if res.Constraint != "R1" {
		t.Errorf("violated constraint = %q, want R1", res.Constraint)
	}
	if n, _ := db.Count("beer"); n != 0 {
		t.Errorf("beer count = %d after abort, want 0", n)
	}
}

func TestPublicAPIExplain(t *testing.T) {
	db := newBeerDB(t, nil)
	// A negative alcohol cannot be proven safe, so R1's differential alarm
	// survives pruning (alcohol 1 would have it elided).
	text, rep, err := db.Explain(`begin
		insert(beer, values[("a", "b", "c", -1)]);
	end`)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(text, "alarm(select(ins(beer)") {
		t.Errorf("modified transaction missing R1's differential alarm:\n%s", text)
	}
	if !strings.Contains(text, "insert(brewery") {
		t.Errorf("modified transaction missing compensation:\n%s", text)
	}
	if rep.RulesTriggered["R1"] != 1 || rep.RulesTriggered["R2"] != 1 {
		t.Errorf("rules triggered = %v, want R1 and R2 once each", rep.RulesTriggered)
	}
	// Explain must not execute.
	if n, _ := db.Count("beer"); n != 0 {
		t.Errorf("Explain executed the transaction")
	}
}

// TestOpenNilIsDifferentialPruned: the default engine is the differential,
// pruned one, and the ignored UseDifferential option changes nothing.
func TestOpenNilIsDifferentialPruned(t *testing.T) {
	const src = `begin
		insert(beer, values[("exportgold", "stout", "guineken", 6)]);
	end`
	var texts []string
	for _, opts := range []*Options{nil, {UseDifferential: false}, {UseDifferential: true}} {
		text, _, err := newBeerDB(t, opts).Explain(src)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}
	if texts[1] != texts[0] || texts[2] != texts[0] {
		t.Errorf("Explain depends on UseDifferential:\n%s\n%s\n%s", texts[0], texts[1], texts[2])
	}
	if strings.Contains(texts[0], "alarm(select(beer,") {
		t.Errorf("Open(nil) appends a full-state alarm:\n%s", texts[0])
	}
}

func TestPublicAPIValidateRules(t *testing.T) {
	db := newBeerDB(t, nil)
	if err := db.ValidateRules(); err != nil {
		t.Errorf("ValidateRules on acyclic set: %v", err)
	}
	dot := db.TriggeringGraphDOT()
	if !strings.Contains(dot, `"R2"`) {
		t.Errorf("DOT output missing R2:\n%s", dot)
	}
}

func TestPublicAPITransitionConstraint(t *testing.T) {
	db := Open(nil)
	db.MustCreateRelation(`relation emp(id int, salary int)`)
	// Salaries may never decrease: a transition constraint over old(emp).
	db.MustDefineConstraint("noCuts", `
		forall x (x in emp implies forall y (y in old(emp) implies
			(x.id <> y.id or x.salary >= y.salary)))`)

	if res, err := db.Submit(`begin insert(emp, values[(1, 100)]); end`); err != nil || !res.Committed {
		t.Fatalf("seed: res=%+v err=%v", res, err)
	}
	// Raise: fine.
	res, err := db.Submit(`begin update(emp, id = 1, [salary = salary + 50]); end`)
	if err != nil {
		t.Fatalf("raise: %v", err)
	}
	if !res.Committed {
		t.Fatalf("raise aborted: %s", res.Reason)
	}
	// Cut: violates the transition constraint.
	res, err = db.Submit(`begin update(emp, id = 1, [salary = salary - 200]); end`)
	if err != nil {
		t.Fatalf("cut: %v", err)
	}
	if res.Committed {
		t.Fatal("salary cut committed despite transition constraint")
	}
	if res.Constraint != "noCuts" {
		t.Errorf("constraint = %q, want noCuts", res.Constraint)
	}
	rows, _ := db.Query(`emp`)
	if len(rows.Data) != 1 || rows.Data[0][1] != int64(150) {
		t.Errorf("emp after abort = %v, want [[1 150]]", rows.Data)
	}
}

func TestPublicAPIAggregateConstraint(t *testing.T) {
	db := Open(nil)
	db.MustCreateRelation(`relation accounts(owner string, balance int)`)
	db.MustDefineConstraint("totalCap", `SUM(accounts, balance) <= 1000`)

	if res, err := db.Submit(`begin insert(accounts, values[("ann", 600)]); end`); err != nil || !res.Committed {
		t.Fatalf("first insert: res=%+v err=%v", res, err)
	}
	res, err := db.Submit(`begin insert(accounts, values[("bob", 600)]); end`)
	if err != nil {
		t.Fatalf("second insert: %v", err)
	}
	if res.Committed {
		t.Fatal("aggregate cap exceeded but committed")
	}
	if res.Constraint != "totalCap" {
		t.Errorf("constraint = %q, want totalCap", res.Constraint)
	}
}

func TestPublicAPIDifferentialMatchesFull(t *testing.T) {
	for _, alcohol := range []int{6, -6} {
		full := withEngine(newBeerDB(t, nil), core.Options{})
		diff := newBeerDB(t, nil)
		src := `begin insert(beer, values[("b", "t", "guineken", ` + itoa(alcohol) + `)]); end`
		r1, err := full.Submit(src)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		r2, err := diff.Submit(src)
		if err != nil {
			t.Fatalf("diff: %v", err)
		}
		if r1.Committed != r2.Committed {
			t.Errorf("alcohol=%d: full committed=%v, differential committed=%v", alcohol, r1.Committed, r2.Committed)
		}
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// TestHostileNestingIsAnError: text nested one level past lang.MaxDepth is
// refused with ErrTooDeep and a position by every grammar's entry point,
// where it used to recurse until the stack gave out; text at the bound
// still parses.
func TestHostileNestingIsAnError(t *testing.T) {
	db := Open(nil)
	db.MustCreateRelation(`relation r(a int)`)
	// expr nests n algebra expressions, the innermost the relation r.
	expr := func(n int) string {
		return strings.Repeat("select(", n-1) + "r" + strings.Repeat(", a > 0)", n-1)
	}
	// cond nests n levels: the formula, the quantifier's body, the right
	// side of implies, then n-3 parenthesised formulas.
	cond := func(n int) string {
		k := n - 3
		return "forall x (x in r implies " + strings.Repeat("(", k) + "x.a >= 0" + strings.Repeat(")", k) + ")"
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrTooDeep) || !strings.Contains(err.Error(), " at 1:") {
			t.Fatalf("%s nested %d deep: err = %v, want ErrTooDeep with a position", what, lang.MaxDepth+1, err)
		}
	}
	_, err := db.Query(expr(lang.MaxDepth + 1))
	refused("Query", err)
	_, err = db.Submit("begin insert(r, " + expr(lang.MaxDepth+1) + "); end")
	refused("Submit", err)
	refused("DefineConstraint", db.DefineConstraint("deep", cond(lang.MaxDepth+1)))

	if _, err := db.Query(expr(lang.MaxDepth)); err != nil {
		t.Fatalf("Query at the bound: %v", err)
	}
	if res, err := db.Submit("begin insert(r, " + expr(lang.MaxDepth) + "); end"); err != nil || !res.Committed {
		t.Fatalf("Submit at the bound: res=%+v err=%v", res, err)
	}
	if err := db.DefineConstraint("deep", cond(lang.MaxDepth)); err != nil {
		t.Fatalf("DefineConstraint at the bound: %v", err)
	}
}
