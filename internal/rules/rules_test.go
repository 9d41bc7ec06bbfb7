package rules_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

func ruleSchema() *schema.Database {
	r := schema.MustRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	s := schema.MustRelation("s",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "v", Type: value.KindInt},
	)
	return schema.MustDatabase(r, s)
}

func parseRule(t *testing.T, db *schema.Database, name, src string) *rules.Rule {
	t.Helper()
	r, err := lang.ParseRule(name, src, db)
	if err != nil {
		t.Fatalf("parse rule %s: %v", name, err)
	}
	return r
}

func TestCompileAbortingRule(t *testing.T) {
	db := ruleSchema()
	r := parseRule(t, db, "R", `if not forall x (x in r implies x.a >= 0) then abort`)
	ip, err := rules.Compile(r, db)
	if err != nil {
		t.Fatal(err)
	}
	if ip.RuleName != "R" {
		t.Errorf("name = %q", ip.RuleName)
	}
	if got := ip.Triggers.String(); got != "INS(r)" {
		t.Errorf("generated triggers = %q, want INS(r)", got)
	}
	if len(ip.Classes) != 1 || ip.Classes[0] != translate.ClassDomain {
		t.Errorf("classes = %v", ip.Classes)
	}
	if ip.Differential == nil {
		t.Error("domain rule has no differential program")
	}
	if ip.Program(false).String() == ip.Program(true).String() {
		t.Error("full and differential programs identical")
	}
	// Fallback: a rule without differential returns Full for both.
	r2 := parseRule(t, db, "E", `if not exists x (x in r and x.a = 0) then abort`)
	ip2, err := rules.Compile(r2, db)
	if err != nil {
		t.Fatal(err)
	}
	if ip2.Differential != nil {
		t.Error("existential rule gained a differential program")
	}
	if ip2.Program(true).String() != ip2.Full.String() {
		t.Error("Program(true) did not fall back to Full")
	}
}

func TestCompileCompensatingRule(t *testing.T) {
	db := ruleSchema()
	r := parseRule(t, db, "C", `
		if not forall x (x in r implies exists y (y in s and x.b = y.k))
		then insert(s, project(antijoin(r, s, b = k), b as k, 0 as v))`)
	ip, err := rules.Compile(r, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := ip.Triggers.String(); got != "INS(r), DEL(s)" {
		t.Errorf("triggers = %q", got)
	}
	if !strings.Contains(ip.Full.String(), "insert(s") {
		t.Errorf("compensating program lost: %s", ip.Full)
	}
	if ip.NonTriggering {
		t.Error("rule marked non-triggering without declaration")
	}
}

func TestCompileRejections(t *testing.T) {
	db := ruleSchema()
	cases := []struct {
		name string
		rule *rules.Rule
		want string
	}{
		{"no name", &rules.Rule{}, "name"},
		{"no condition", &rules.Rule{Name: "X", Action: rules.AbortAction()}, "condition"},
	}
	for _, c := range cases {
		if _, err := rules.Compile(c.rule, db); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Ill-typed action.
	r := parseRule(t, db, "Bad", `
		if not forall x (x in r implies x.a >= 0)
		then insert(s, r)`) // r has incompatible schema? r(a,b) int,int vs s(k,v) int,int — compatible!
	if _, err := rules.Compile(r, db); err != nil {
		t.Errorf("schema-compatible action rejected: %v", err)
	}
	r2 := parseRule(t, db, "Bad2", `
		if not forall x (x in r implies x.a >= 0)
		then insert(s, project(r, a))`) // arity mismatch
	if _, err := rules.Compile(r2, db); err == nil {
		t.Error("arity-mismatched action compiled")
	}
	// Condition outside the supported fragment.
	r3 := parseRule(t, db, "Bad3",
		`if not forall x (x in r implies exists y (y in s and exists z (z in r and z.a = y.k and z.b = x.b))) then abort`)
	if _, err := rules.Compile(r3, db); err == nil {
		t.Error("three-level condition compiled")
	}
}

func TestCatalogLifecycle(t *testing.T) {
	db := ruleSchema()
	cat := rules.NewCatalog(db)
	r1 := parseRule(t, db, "R1", `if not forall x (x in r implies x.a >= 0) then abort`)
	r2 := parseRule(t, db, "R2", `if not CNT(s) <= 100 then abort`)
	if err := cat.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(r2); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(parseRule(t, db, "R1", `if not CNT(r) <= 1 then abort`)); err == nil {
		t.Error("duplicate rule name accepted")
	}
	if cat.Len() != 2 {
		t.Errorf("Len = %d", cat.Len())
	}
	progs := cat.Programs()
	if len(progs) != 2 || progs[0].RuleName != "R1" || progs[1].RuleName != "R2" {
		t.Errorf("Programs order = %v", []string{progs[0].RuleName, progs[1].RuleName})
	}
	defer func() {
		// Remove and Add replace the list: a slice taken before stays put.
		if len(progs) != 2 || progs[0].RuleName != "R1" || progs[1].RuleName != "R2" {
			t.Errorf("an earlier Programs slice changed to %v", []string{progs[0].RuleName, progs[1].RuleName})
		}
	}()
	if _, ok := cat.Rule("R2"); !ok {
		t.Error("Rule(R2) missing")
	}
	if _, ok := cat.Program("R2"); !ok {
		t.Error("Program(R2) missing")
	}
	if err := cat.Remove("R1"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Remove("R1"); err == nil {
		t.Error("double remove succeeded")
	}
	if cat.Len() != 1 || cat.Programs()[0].RuleName != "R2" {
		t.Errorf("catalog after remove: %v", cat.Names())
	}
	if err := cat.Add(parseRule(t, db, "R3", `if not CNT(r) <= 1 then abort`)); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogProgramsAllocatesNothing: every modification level reads the
// program list, so handing it out must not copy it.
func TestCatalogProgramsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := ruleSchema()
	cat := rules.NewCatalog(db)
	for _, name := range []string{"R1", "R2", "R3"} {
		if err := cat.Add(parseRule(t, db, name, `if not forall x (x in r implies x.a >= 0) then abort`)); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if allocs := testing.AllocsPerRun(100, func() { n = len(cat.Programs()) }); allocs != 0 {
		t.Fatalf("Programs allocates %.0f times, want 0", allocs)
	}
	if n != 3 {
		t.Fatalf("Programs holds %d programs, want 3", n)
	}
}

// TestRaisesAndSelects pins what each kind of program raises and the
// selection predicate built on it: a repair raises its writes but never
// re-selects its own rule, a compensating action raises its writes (its
// own rule included), and alarms and non-triggering actions raise nothing.
func TestRaisesAndSelects(t *testing.T) {
	db := ruleSchema()
	compile := func(r *rules.Rule, err error) *rules.IntegrityProgram {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ip, err := rules.Compile(r, db)
		if err != nil {
			t.Fatal(err)
		}
		return ip
	}
	abort := compile(lang.ParseConstraintRule("abort", `forall x (x in r implies x.a >= 0)`))
	clamp := compile(lang.ParseConstraintRule("clamp", `forall x (x in r implies x.a >= 0) on violation clamp`))
	copyR := compile(lang.ParseRule("copy", `when INS(r) if not forall x (x in r implies x.a < 9) then insert(r, s)`, db))
	quiet := compile(lang.ParseRule("quiet", `when INS(r) if not forall x (x in r implies x.a < 9) then nontriggering insert(r, s)`, db))
	for _, c := range []struct {
		ip     *rules.IntegrityProgram
		raises string
	}{{abort, ""}, {clamp, "INS(r), DEL(r)"}, {copyR, "INS(r)"}, {quiet, ""}} {
		if got := c.ip.Raises.String(); got != c.raises {
			t.Errorf("%s raises {%s}, want {%s}", c.ip.RuleName, got, c.raises)
		}
	}
	for _, c := range []struct {
		from, to *rules.IntegrityProgram
		want     bool
	}{
		{clamp, abort, true},
		{clamp, clamp, false},
		{copyR, copyR, true},
		{copyR, clamp, true},
		{abort, clamp, false},
		{quiet, abort, false},
	} {
		if got := rules.Selects(c.from, c.to); got != c.want {
			t.Errorf("Selects(%s, %s) = %v, want %v", c.from.RuleName, c.to.RuleName, got, c.want)
		}
	}
}

// TestIndexHintsFollowPrograms pins the hint set of each constraint class:
// a compiled rule hints exactly the indexes its differential checks and its
// repair probe. A domain check reads only the transaction's inserts, so an
// abort-only domain rule hints nothing, while a clamp or cascade delete
// range-selects the relation and hints the compared column.
func TestIndexHintsFollowPrograms(t *testing.T) {
	db := ruleSchema()
	cases := []struct {
		name, cond string
		want       string
	}{
		{"referential", `forall x (x in r implies exists y (y in s and x.b = y.k))`, "r(b) s(k)"},
		{"pair", `forall x, y ((x in r and y in s and x.a = y.k) implies x.b = y.v)`, "r(a) s(k)"},
		{"existential", `exists x (x in r and x.a > 0)`, "r(a) ordered"},
		{"domain abort-only", `forall x (x in r implies x.a >= 0)`, ""},
		{"domain clamp", `forall x (x in r implies x.a >= 0) on violation clamp`, "r(a) ordered"},
		{"domain cascade delete", `forall x (x in r implies x.a >= 0) on violation cascade delete`, "r(a) ordered"},
		{"aggregate", `SUM(r, a) >= 0`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := lang.ParseConstraintRule("C", c.cond)
			if err != nil {
				t.Fatal(err)
			}
			ip, err := rules.Compile(r, db)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, h := range ip.IndexHints {
				decl := h.Relation + "(" + strings.Join(h.Attrs, ", ") + ")"
				if h.Ordered {
					decl += " ordered"
				}
				got = append(got, decl)
			}
			sort.Strings(got)
			if s := strings.Join(got, " "); s != c.want {
				t.Fatalf("hints %q, want %q", s, c.want)
			}
		})
	}
}

func TestExplicitTriggersPreserved(t *testing.T) {
	db := ruleSchema()
	r := parseRule(t, db, "R", `
		when DEL(r)
		if not forall x (x in r implies x.a >= 0)
		then abort`)
	ip, err := rules.Compile(r, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := ip.Triggers.String(); got != "DEL(r)" {
		t.Errorf("explicit trigger set overwritten: %q", got)
	}
}

func TestRuleStringRendering(t *testing.T) {
	db := ruleSchema()
	r := parseRule(t, db, "R", `if not forall x (x in r implies x.a >= 0) then abort`)
	if _, err := rules.Compile(r, db); err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, frag := range []string{"WHEN INS(r)", "IF NOT", "THEN abort"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rule text %q missing %q", s, frag)
		}
	}
}
