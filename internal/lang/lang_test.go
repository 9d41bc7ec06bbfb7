package lang

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/schema"
	"repro/internal/value"
)

func parserSchema() *schema.Database {
	beer := schema.MustRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcohol", Type: value.KindInt},
	)
	brewery := schema.MustRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
	)
	return schema.MustDatabase(beer, brewery)
}

func TestParseConstraintShapes(t *testing.T) {
	cases := []struct {
		src  string
		want string // fragment expected in the AST rendering
	}{
		{`forall x (x in beer implies x.alcohol >= 0)`, "(forall x)"},
		{`exists y (y in brewery and y.city = "leuven")`, "(exists y)"},
		{`forall x, y ((x in beer and y in beer) implies x == y)`, "(forall x)((forall y)"},
		{`SUM(beer, alcohol) <= 100`, "SUM(beer, alcohol)"},
		{`CNT(brewery) > 0`, "CNT(brewery)"},
		{`forall x (x in old(beer) implies x.alcohol >= 0)`, "old(beer)"},
		{`forall x (x in beer implies x.#3 >= 0)`, "x.#3"},
		{`forall x (x in beer implies not (x.alcohol < 0 or x.alcohol > 100))`, "or"},
		{`forall x (x in beer implies x.alcohol * 2 + 1 >= 3 / 4)`, "*"},
	}
	for _, c := range cases {
		w, err := ParseConstraint(c.src)
		if err != nil {
			t.Errorf("ParseConstraint(%q): %v", c.src, err)
			continue
		}
		if !strings.Contains(w.String(), c.want) {
			t.Errorf("ParseConstraint(%q) = %s, missing %q", c.src, w, c.want)
		}
	}
}

func TestParseConstraintPrecedence(t *testing.T) {
	// implies binds loosest, then or, then and.
	w, err := ParseConstraint(`1 = 1 and 2 = 2 or 3 = 3 implies 4 = 4`)
	if err != nil {
		t.Fatal(err)
	}
	imp, ok := w.(*calculus.WImplies)
	if !ok {
		t.Fatalf("top = %T, want implies", w)
	}
	if _, ok := imp.L.(*calculus.WOr); !ok {
		t.Errorf("lhs of implies = %T, want or", imp.L)
	}
	// Arithmetic: * before +.
	w2, err := ParseConstraint(`1 + 2 * 3 = 7`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := w2.(*calculus.WAtom).A.(*calculus.ACompare)
	add, ok := cmp.L.(*calculus.TArith)
	if !ok || add.Op != value.OpAdd {
		t.Fatalf("lhs = %v, want addition at top", cmp.L)
	}
}

func TestParseConstraintRoundTrip(t *testing.T) {
	sources := []string{
		`forall x (x in beer implies x.alcohol >= 0)`,
		`forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))`,
		`SUM(beer, alcohol) <= 100`,
		`exists x (x in beer and x.alcohol = 12)`,
	}
	for _, src := range sources {
		w1, err := ParseConstraint(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		w2, err := ParseConstraint(w1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", w1.String(), err)
		}
		if w1.String() != w2.String() {
			t.Errorf("round trip changed AST:\n  %s\n  %s", w1, w2)
		}
	}
}

func TestParseConstraintErrors(t *testing.T) {
	bad := []string{
		``,
		`forall (x in beer)`,
		`forall x x in beer`,
		`forall x (x in beer implies )`,
		`forall x (x in beer implies x.alcohol >= )`,
		`forall x (x in beer implies x.alcohol ?? 0)`,
		`forall x (x in beer`,
		`SUM(beer) <= 1`, // SUM needs an attribute
		`"unterminated`,
	}
	for _, src := range bad {
		if _, err := ParseConstraint(src); err == nil {
			t.Errorf("ParseConstraint(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorsMentionPosition(t *testing.T) {
	_, err := ParseConstraint("forall x (x in beer implies\n  x.alcohol >= )")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q does not carry a line number", err)
	}
}

func TestParseProgramStatements(t *testing.T) {
	db := parserSchema()
	src := `
		tmp := diff(project(beer, brewery), project(brewery, name));
		insert(brewery, project(tmp, #1 as name, null as city));
		delete(beer, select(beer, alcohol < 0));
		update(beer, name = "x", [alcohol = alcohol + 1]);
		alarm(select(beer, not (alcohol >= 0)), "R1");
		abort`
	prog, err := ParseProgram(src, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 6 {
		t.Fatalf("parsed %d statements, want 6", len(prog))
	}
	wantTypes := []string{"*algebra.Assign", "*algebra.Insert", "*algebra.Delete", "*algebra.Update", "*algebra.Alarm", "*algebra.Abort"}
	for i, s := range prog {
		if got := typeName(s); got != wantTypes[i] {
			t.Errorf("statement %d = %s, want %s", i+1, got, wantTypes[i])
		}
	}
	al := prog[4].(*algebra.Alarm)
	if al.Constraint != "R1" {
		t.Errorf("alarm constraint = %q", al.Constraint)
	}
	// The parsed program must type-check against the schema.
	if err := prog.TypeCheck(algebra.NewTypeEnv(db)); err != nil {
		t.Errorf("parsed program fails type check: %v", err)
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *algebra.Assign:
		return "*algebra.Assign"
	case *algebra.Insert:
		return "*algebra.Insert"
	case *algebra.Delete:
		return "*algebra.Delete"
	case *algebra.Update:
		return "*algebra.Update"
	case *algebra.Alarm:
		return "*algebra.Alarm"
	case *algebra.Abort:
		return "*algebra.Abort"
	default:
		return "?"
	}
}

func TestParseExprForms(t *testing.T) {
	db := parserSchema()
	exprs := []string{
		`beer`,
		`old(beer)`,
		`ins(beer)`,
		`del(brewery)`,
		`select(beer, alcohol > 3 and brewery = "g")`,
		`project(beer, name, alcohol * 2 as dbl)`,
		`join(beer, brewery, #2 = #4)`,
		`semijoin(beer, brewery, #2 = #4)`,
		`antijoin(beer, brewery, #2 = #4)`,
		`union(project(beer, name), project(brewery, name))`,
		`intersect(project(beer, name), project(brewery, name))`,
		`rename(brewery, b2, [n, c])`,
		`agg(beer, SUM, alcohol)`,
		`agg(beer, MAX, alcohol as peak)`,
		`cnt(brewery)`,
	}
	for _, src := range exprs {
		prog, err := ParseProgram("q := "+src, db)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		e := prog[0].(*algebra.Assign).Expr
		if _, err := e.TypeCheck(algebra.NewTypeEnv(db)); err != nil {
			t.Errorf("type check %q: %v", src, err)
		}
	}
}

func TestParseTransactionBrackets(t *testing.T) {
	db := parserSchema()
	prog, err := ParseTransaction(`begin
		insert(beer, values[("a", "b", 1), ("c", "d", 2)]);
	end`, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 1 {
		t.Fatalf("statements = %d", len(prog))
	}
	if _, err := ParseTransaction(`insert(beer, values[("a","b",1)]);`, db); err == nil {
		t.Error("transaction without begin accepted")
	}
	if _, err := ParseTransaction(`begin insert(beer, values[("a","b",1)]);`, db); err == nil {
		t.Error("transaction without end accepted")
	}
	if _, err := ParseTransaction(`begin end trailing`, db); err == nil {
		t.Error("trailing input accepted")
	}
}

func TestParseValuesLiteralTypes(t *testing.T) {
	db := parserSchema()
	good := `begin insert(beer, values[("a", "b", 1), ("c", null, -2)]); end`
	prog, err := ParseTransaction(good, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.TypeCheck(algebra.NewTypeEnv(db)); err != nil {
		t.Errorf("values literal with null/negative: %v", err)
	}
	if _, err := ParseTransaction(`begin insert(nosuch, values[(1)]); end`, db); err == nil {
		t.Error("values into unknown relation accepted")
	}
}

func TestParseRuleForms(t *testing.T) {
	db := parserSchema()
	r, err := ParseRule("R", `
		when INS(beer), DEL(brewery)
		if not forall x (x in beer implies x.alcohol >= 0)
		then abort`, db)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Action.Abort {
		t.Error("abort action not recognized")
	}
	if r.Triggers == nil || len(r.Triggers) != 2 {
		t.Errorf("explicit triggers = %v", r.Triggers)
	}

	r2, err := ParseRule("R2", `
		if not forall x (x in beer implies x.alcohol >= 0)
		then nontriggering
			delete(beer, select(beer, alcohol < 0))`, db)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Action.Abort || !r2.Action.NonTriggering {
		t.Errorf("action = %+v, want non-triggering compensation", r2.Action)
	}
	if r2.Triggers != nil {
		t.Error("triggers should be nil (generated later)")
	}

	bad := []string{
		`if forall x (x in beer) then abort`,             // missing NOT
		`when UPD(beer) if not CNT(beer) > 0 then abort`, // bad trigger type
		`if not CNT(beer) > 0 then`,                      // missing action
	}
	for _, src := range bad {
		if _, err := ParseRule("B", src, db); err == nil {
			t.Errorf("ParseRule(%q) succeeded", src)
		}
	}
}

func TestParseRelationSchemaDDL(t *testing.T) {
	rs, err := ParseRelationSchema(`relation emp(id int, name string, pay float, active bool)`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Name != "emp" || rs.Arity() != 4 {
		t.Fatalf("schema = %s", rs)
	}
	wantKinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindBool}
	for i, k := range wantKinds {
		if rs.Attrs[i].Type != k {
			t.Errorf("attr %d type = %s, want %s", i, rs.Attrs[i].Type, k)
		}
	}
	bad := []string{
		`emp(id int)`,                  // missing keyword
		`relation emp()`,               // no attrs
		`relation emp(id uuid)`,        // unknown type
		`relation emp(id int, id int)`, // duplicate
	}
	for _, src := range bad {
		if _, err := ParseRelationSchema(src); err == nil {
			t.Errorf("ParseRelationSchema(%q) succeeded", src)
		}
	}
}

func TestLexerDetails(t *testing.T) {
	// Comments, escapes, floats with exponents.
	w, err := ParseConstraint("-- a comment\nCNT(beer) >= 1e2 -- trailing")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "100") {
		t.Errorf("exponent literal parsed as %s", w)
	}
	w2, err := ParseConstraint(`exists x (x in beer and x.name = "quoted \"q\"")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w2.String(), `quoted \"q\"`) {
		t.Errorf("escape lost: %s", w2)
	}
}

// TestLexAllocations: lexing a transaction allocates the lexer and one token
// slice sized up front, not a slice grown token by token.
func TestLexAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const place = "begin insert(ord0, values[(4123, 512, 7)]); delete(ord0, select(ord0, id = 4000)); end"
	if n := testing.AllocsPerRun(100, func() {
		if _, err := lex(place); err != nil {
			panic(err)
		}
	}); n > 2 {
		t.Fatalf("lexing a place transaction allocates %.0f times, want at most 2", n)
	}
	// A long string literal is one token and must not inflate the estimate.
	kv := `begin delete(kv, values[(7, 0, "` + strings.Repeat("0", 64) + `")]); end`
	l, err := lex(kv)
	if err != nil {
		t.Fatal(err)
	}
	if est := tokenEstimate(kv); est < len(l.tokens) || est > 2*len(l.tokens) {
		t.Fatalf("estimated %d tokens for %d", est, len(l.tokens))
	}
}

func TestScalarParser(t *testing.T) {
	s, err := ParseScalar(`#1 + 2 * #2 >= 10 and not (name = "x")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "and") {
		t.Errorf("scalar = %s", s)
	}
	if _, err := ParseScalar(`#0`); err == nil {
		t.Error("attribute #0 accepted (positions are 1-based)")
	}
	if _, err := ParseScalar(``); err == nil {
		t.Error("empty scalar accepted")
	}
}

// TestNestingBoundEveryProduction: every production that recurses — nested
// expressions, parenthesised formulas, terms and scalars, and the prefix
// chains of not, unary minus and implies — counts against MaxDepth, so text
// nested past it is refused with ErrTooDeep in every grammar instead of
// recursing without bound.
func TestNestingBoundEveryProduction(t *testing.T) {
	const n = MaxDepth + 1
	rep := strings.Repeat
	db := parserSchema()
	constraint := func(src string) error { _, err := ParseConstraint(src); return err }
	program := func(src string) error { _, err := ParseProgram(src, db); return err }
	rule := func(src string) error { _, err := ParseRule("r", src, db); return err }
	for name, tc := range map[string]struct {
		parse func(string) error
		src   string
	}{
		"expression":     {program, "q := " + rep("project(", n) + "beer" + rep(", #1)", n) + ";"},
		"formula parens": {constraint, "forall x (x in beer implies " + rep("(", n) + "x.alcohol >= 0" + rep(")", n) + ")"},
		"not":            {constraint, "forall x (x in beer implies " + rep("not ", n) + "x.alcohol >= 0)"},
		"implies":        {constraint, "forall x (x in beer implies " + rep("x.alcohol >= 0 implies ", n) + "x.alcohol >= 0)"},
		"term parens":    {constraint, "forall x (x in beer implies " + rep("(", n) + "x.alcohol" + rep(")", n) + " >= 0)"},
		"term minus":     {constraint, "forall x (x in beer implies " + rep("- ", n) + "x.alcohol >= 0)"},
		"scalar parens":  {program, "q := select(beer, " + rep("(", n) + "alcohol > 0" + rep(")", n) + ");"},
		"scalar not":     {program, "q := select(beer, " + rep("not ", n) + "alcohol > 0);"},
		"scalar minus":   {program, "q := select(beer, alcohol > " + rep("- ", n) + "1);"},
		"constant minus": {program, `insert(beer, values[("a", "b", ` + rep("- ", n) + "1)]);"},
		"rule action":    {rule, "if not forall x (x in beer implies x.alcohol >= 0) then q := " + rep("project(", n) + "beer" + rep(", #1)", n)},
	} {
		if err := tc.parse(tc.src); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s nested %d deep: err = %v, want ErrTooDeep", name, n, err)
		}
	}
}
