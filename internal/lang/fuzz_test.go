package lang

import (
	"errors"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/schema"
)

// fuzzSchema is the fixed schema FuzzParse parses against: the difftest
// generator's item and ord relations and the paper's parent and child.
func fuzzSchema(t testing.TB) *schema.Database {
	db := schema.MustDatabase()
	for _, ddl := range []string{
		`relation item(id int, qty int, price int, cat string)`,
		`relation ord(id int, item int, n int)`,
		`relation parent(id int, name string)`,
		`relation child(id int, parent int, qty int)`,
	} {
		rs, err := ParseRelationSchema(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(rs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// goldenTxn matches one explained transaction in the enforcement golden.
var goldenTxn = regexp.MustCompile(`(?s)begin\n.*?\nend`)

// FuzzParse runs every text through the four grammars — transactions, CL
// constraints, RL rules and relation DDL — over a fixed schema. No text may
// panic a parser. An accepted constraint or transaction must print to text
// that parses back to the same printed form. And any text that lexes, put
// behind MaxDepth+1 levels of nesting, must be refused with an error
// wrapping ErrTooDeep, whatever follows the nesting.
func FuzzParse(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/enforcement.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, txn := range goldenTxn.FindAllString(string(golden), -1) {
		f.Add(txn)
	}
	for seed := int64(1); seed <= 40; seed++ {
		sc := difftest.Generate(rand.New(rand.NewSource(seed)), 4)
		for _, c := range sc.Constraints {
			f.Add(c.Cond)
		}
		for _, src := range append(sc.Relations, append(sc.Seed, sc.Txns...)...) {
			f.Add(src)
		}
	}
	for _, src := range []string{
		`when INS(ord) if not forall x (x in ord implies x.n >= 0) then abort`,
		`if not forall x (x in ord implies exists y (y in item and x.item = y.id))
		then nontriggering insert(item, project(antijoin(ord, item, item = id), item, 0, 0, "x"))`,
		`forall x (x in child implies x.qty * 2 + 1 >= - 3 / 4)`,
		`CNT(parent) <= 10 or not exists x (x in old(child) and x.#2 = 1)`,
	} {
		f.Add(src)
	}
	db := fuzzSchema(f)
	deep := strings.Repeat("(", MaxDepth+1)
	deepExpr := "begin q := " + strings.Repeat("select(", MaxDepth+1)
	f.Fuzz(func(t *testing.T, src string) {
		if w, err := ParseConstraint(src); err == nil {
			again, err := ParseConstraint(w.String())
			if err != nil {
				t.Fatalf("constraint %q prints as %q, which does not parse: %v", src, w, err)
			}
			if again.String() != w.String() {
				t.Fatalf("constraint %q round-trips from %q to %q", src, w, again)
			}
		}
		if prog, err := ParseTransaction(src, db); err == nil {
			printed := "begin\n" + prog.String() + "end"
			again, err := ParseTransaction(printed, db)
			if err != nil {
				t.Fatalf("transaction %q prints as %q, which does not parse: %v", src, printed, err)
			}
			if again.String() != prog.String() {
				t.Fatalf("transaction %q round-trips from %q to %q", src, prog, again)
			}
		}
		_, _ = ParseRule("r", src, db)
		_, _ = ParseRelationSchema(src)
		if _, err := newParser(src); err != nil {
			return
		}
		if _, err := ParseConstraint(deep + src); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("constraint behind %d parentheses: err = %v, want ErrTooDeep", MaxDepth+1, err)
		}
		if _, err := ParseTransaction(deepExpr+src, db); !errors.Is(err, ErrTooDeep) {
			t.Fatalf("transaction behind %d selections: err = %v, want ErrTooDeep", MaxDepth+1, err)
		}
	})
}
