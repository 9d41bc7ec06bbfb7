package repro

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/difftest"
)

var updateEnforcementGolden = flag.Bool("update-enforcement", false, "rewrite testdata/enforcement.golden")

// goldenCase is one constraint set with the transactions explained under it.
// Constraints are defined first, then RL rules, then views, each in list
// order; rules and views are {name, text} pairs.
type goldenCase struct {
	name        string
	relations   []string
	constraints []difftest.Constraint
	rules       [][2]string
	views       [][2]string
	txns        []string
}

// enforcementGoldenCases lists the difftest scenarios of seeds 1–40, the
// Table 1 rows, guarded rules whose transactions reach each safety proof,
// the txbench constraints with one place, update and delete transaction
// each, and rule sets whose transactions reach a second modification level
// through repairs, compensating actions and views.
func enforcementGoldenCases() []goldenCase {
	var out []goldenCase
	for seed := int64(1); seed <= 40; seed++ {
		sc := difftest.Generate(rand.New(rand.NewSource(seed)), 6)
		out = append(out, goldenCase{
			name:        fmt.Sprintf("difftest seed %d", seed),
			relations:   sc.Relations,
			constraints: sc.Constraints,
			txns:        sc.Txns,
		})
	}

	paper := []string{
		`relation parent(id int, name string)`,
		`relation child(id int, parent int, qty int)`,
	}
	paperTxns := []string{
		`begin insert(child, values[(1, 1, 5)]); end`,
		`begin insert(child, values[(2, 1, -3)]); end`,
		`begin insert(parent, values[(7, "p")]); end`,
		`begin delete(parent, select(parent, id = 1)); end`,
		`begin delete(child, select(child, id = 1)); end`,
		`begin update(child, id = 1, [qty = qty + 1]); end`,
		`begin update(child, id = 1, [parent = 2]); end`,
		`begin update(parent, id = 1, [name = "q"]); end`,
		`begin update(parent, id = 1, [id = 9]); end`,
	}
	for i, cl := range []string{
		`forall x (x in child implies x.qty >= 0)`,
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`,
		`forall x (x in child implies forall y (y in parent implies x.id <> y.id))`,
		`forall x, y ((x in child and y in child and x.id = y.id) implies x.qty = y.qty)`,
		`exists x (x in parent and x.id = 0)`,
		`SUM(child, qty) >= 0`,
		`CNT(parent) <= 1000000`,
	} {
		out = append(out, goldenCase{
			name:        fmt.Sprintf("Table 1 row %d", i+1),
			relations:   paper,
			constraints: []difftest.Constraint{{Name: fmt.Sprintf("c%d", i+1), Cond: cl}},
			txns:        paperTxns,
		})
	}

	out = append(out, goldenCase{
		name:      "guarded rules",
		relations: paper,
		constraints: []difftest.Constraint{
			{Name: "g1", Cond: `forall x ((x in child and x.qty > 0) implies exists y (y in parent and x.parent = y.id and y.name <> "closed"))`},
			{Name: "g2", Cond: `forall x ((x in child and x.qty > 10) implies x.parent >= 0)`},
			{Name: "g3", Cond: `forall x (x in child implies forall y ((y in parent and y.name = "x") implies x.id <> y.id))`},
		},
		txns: []string{
			`begin insert(child, values[(1, 1, 0)]); end`,
			`begin insert(child, values[(2, 1, 20)]); end`,
			`begin delete(parent, values[(1, "closed")]); end`,
			`begin delete(parent, values[(1, "open")]); end`,
			`begin update(child, id = 1, [qty = qty + 1]); end`,
			`begin update(child, id = 1, [parent = parent + 1]); end`,
			`begin update(child, id = 1, [id = 7]); end`,
			`begin update(parent, id = 1, [name = "z"]); end`,
			`begin insert(parent, values[(9, "x")]); end`,
			`begin insert(parent, values[(9, "y")]); end`,
		},
	})

	out = append(out, goldenCase{
		name:      "txbench kv",
		relations: []string{`relation kv(k int, ver int, v string)`},
		constraints: []difftest.Constraint{
			{Name: "ver_nonneg", Cond: `forall x (x in kv implies x.ver >= 0)`},
		},
		txns: []string{
			`begin delete(kv, values[(3, 0, "pad")]); insert(kv, values[(3, 1, "pad")]); end`,
			`begin update(kv, k = 3, [ver = ver + 1]); end`,
			`begin delete(kv, select(kv, k = 3)); end`,
		},
	}, goldenCase{
		name: "txbench order entry",
		relations: []string{
			`relation item(id int, name string)`,
			`relation ord0(id int, item int, qty int)`,
		},
		constraints: []difftest.Constraint{
			{Name: "ref0", Cond: `forall x (x in ord0 implies exists y (y in item and x.item = y.id))`},
			{Name: "dom0", Cond: `forall x (x in ord0 implies x.qty >= 0)`},
		},
		txns: []string{
			`begin insert(ord0, values[(5000, 17, 3)]); delete(ord0, select(ord0, id = 12)); end`,
			`begin update(ord0, id = 12, [qty = qty + 1]); end`,
			`begin delete(ord0, select(ord0, id = 12)); end`,
			`begin delete(item, select(item, id = 17)); end`,
		},
	})
	return append(out, multiLevelGoldenCases()...)
}

// multiLevelGoldenCases are rule sets whose enforcement programs write
// relations other rules constrain, so modification selects rules again
// below level 1.
func multiLevelGoldenCases() []goldenCase {
	shop := []string{
		`relation item(id int, price int)`,
		`relation ord(id int, item int)`,
	}
	return []goldenCase{{
		// Deleting a customer cascades to its orders at level 1 and to their
		// lines at level 2; neither repair re-selects its own rule.
		name: "cascade delete chain",
		relations: []string{
			`relation cust(id int, name string)`,
			`relation ord(id int, cust int)`,
			`relation line(id int, ord int, qty int)`,
		},
		constraints: []difftest.Constraint{
			{Name: "ord_cust", Cond: `forall x (x in ord implies exists y (y in cust and x.cust = y.id)) on violation cascade delete`},
			{Name: "line_ord", Cond: `forall x (x in line implies exists y (y in ord and x.ord = y.id)) on violation cascade delete`},
		},
		txns: []string{
			`begin delete(cust, select(cust, id = 1)); end`,
			`begin delete(ord, select(ord, id = 4)); end`,
			`begin insert(line, values[(1, 4, 2)]); end`,
		},
	}, {
		// The filled item rows are checked at level 2.
		name:      "default fill feeding a check",
		relations: shop,
		constraints: []difftest.Constraint{
			{Name: "ord_item", Cond: `forall x (x in ord implies exists y (y in item and x.item = y.id)) on violation default fill`},
			{Name: "item_id", Cond: `forall x (x in item implies x.id > 0)`},
		},
		txns: []string{
			`begin insert(ord, values[(1, 5)]); end`,
			`begin update(ord, id = 1, [item = item + 1]); end`,
			`begin insert(item, values[(5, 3)]); insert(ord, values[(2, 5)]); end`,
		},
	}, {
		// The clamp selects cap again at level 2 and not itself. A clamp
		// whose check the analyzer elides appends no repair either.
		name:      "clamp beside a second rule",
		relations: []string{`relation stock(id int, qty int)`},
		constraints: []difftest.Constraint{
			{Name: "qty_clamp", Cond: `forall x (x in stock implies x.qty >= 0) on violation clamp`},
			{Name: "cap", Cond: `forall x (x in stock implies x.qty <= x.id)`},
		},
		txns: []string{
			`begin insert(stock, values[(1, -5)]); end`,
			`begin update(stock, id = 1, [qty = qty - 5]); end`,
			`begin insert(stock, values[(2, 5)]); end`,
			`begin delete(stock, select(stock, id = 1)); end`,
		},
	}, {
		// A compensating action's writes select the aborting rule on them at
		// level 2; the non-triggering action's writes select nothing.
		name: "compensating actions",
		relations: []string{
			`relation a(x int)`,
			`relation b(x int)`,
			`relation c(x int)`,
		},
		constraints: []difftest.Constraint{
			{Name: "b_nonneg", Cond: `forall v (v in b implies v.x >= 0)`},
			{Name: "c_nonneg", Cond: `forall v (v in c implies v.x >= 0)`},
		},
		rules: [][2]string{
			{"copy_b", `when INS(a) if not forall v (v in a implies v.x < 1000) then insert(b, a)`},
			{"copy_c", `when INS(a) if not forall v (v in a implies v.x < 1000) then nontriggering insert(c, a)`},
		},
		txns: []string{
			`begin insert(a, values[(-7)]); end`,
			`begin insert(a, values[(4)]); delete(b, select(b, x = 4)); end`,
		},
	}, {
		// The view reads item, which the fill writes at level 1 and the user
		// at level 0: its maintenance is appended once, after every level.
		name:      "view over a repaired relation",
		relations: shop,
		constraints: []difftest.Constraint{
			{Name: "ord_item", Cond: `forall x (x in ord implies exists y (y in item and x.item = y.id)) on violation default fill`},
		},
		views: [][2]string{{"cheap", `select(item, price < 5)`}},
		txns: []string{
			`begin insert(ord, values[(1, 5)]); end`,
			`begin insert(item, values[(6, 2)]); insert(ord, values[(2, 6)]); end`,
			`begin delete(item, select(item, id = 6)); end`,
		},
	}}
}

// renderEnforcement explains every transaction of c under the default
// engine and renders each rule's differential program, the modified
// programs and their elided-check counts.
func renderEnforcement(t *testing.T, c goldenCase) string {
	t.Helper()
	db := Open(nil)
	for _, ddl := range c.relations {
		if err := db.EnsureRelation(ddl); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	for _, con := range c.constraints {
		if err := db.DefineConstraint(con.Name, con.Cond); err != nil {
			continue // the difftest harness drops rejected declarations too
		}
		if db.ValidateRules() != nil {
			if err := db.DropRule(con.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range c.rules {
		if err := db.DefineRule(r[0], r[1]); err != nil {
			t.Fatalf("%s rule %s: %v", c.name, r[0], err)
		}
	}
	for _, v := range c.views {
		if err := db.DefineView(v[0], v[1]); err != nil {
			t.Fatalf("%s view %s: %v", c.name, v[0], err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", c.name)
	for _, ip := range db.cat.Programs() {
		fmt.Fprintf(&b, "rule %s differential:\n%s", ip.RuleName, ip.Differential)
	}
	for i, src := range c.txns {
		text, rep, err := db.Explain(src)
		if err != nil {
			t.Fatalf("%s txn %d: %v", c.name, i+1, err)
		}
		fmt.Fprintf(&b, "txn %d: %d -> %d statements, %d elided\n%s\n",
			i+1, rep.OriginalStmts, rep.FinalStmts, rep.ChecksElided, text)
	}
	return b.String()
}

// TestEnforcementGolden pins the enforcement programs the default engine
// builds: every rule's differential program and every explained
// transaction's modified text and elided-check count must match
// testdata/enforcement.golden. Regenerate it with
// `go test -run TestEnforcementGolden -update-enforcement` only when a
// change to the programs is intended.
func TestEnforcementGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range enforcementGoldenCases() {
		b.WriteString(renderEnforcement(t, c))
	}
	const path = "testdata/enforcement.golden"
	if *updateEnforcementGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gotLines), len(wantLines))
	}
}
