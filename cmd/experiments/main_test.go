package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/txn"
)

// TestDeterministicSectionsCommitted holds EXPERIMENTS.md to the code: Table
// 1 and Example 5.1 depend only on translation and modification, so the
// committed file must contain their current output verbatim. Regenerate it
// with `go run ./cmd/experiments` when either changes.
func TestDeterministicSectionsCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(io.Writer){
		"Table 1":     runTable1,
		"Example 5.1": runExample51,
	} {
		var out bytes.Buffer
		run(&out)
		section := strings.TrimRight(out.String(), "\n")
		if !bytes.Contains(committed, []byte(section)) {
			t.Errorf("EXPERIMENTS.md does not contain the current %s output; regenerate it. Current output:\n%s", name, section)
		}
	}
}

// TestDynamicEqualsPrecompiled checks that translating the selected rules
// at modification time (Algorithm 5.1, dynamicModify) produces the same
// program text as selecting precompiled integrity programs (Algorithm
// 6.2), in the paper's full-state form and in the default engine's, for
// the beer rules and for a repair that selects a second rule at level 2.
func TestDynamicEqualsPrecompiled(t *testing.T) {
	beer := beerCatalog()
	stock := rules.NewCatalog(beer.Schema())
	for _, c := range []struct{ name, cond string }{
		{"nonneg", `forall x (x in beer implies x.alcohol >= 0) on violation clamp`},
		{"cap", `forall x (x in beer implies x.alcohol <= 20)`},
	} {
		r, err := lang.ParseConstraintRule(c.name, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		if err := stock.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, cat := range []*rules.Catalog{beer, stock} {
		for _, src := range []string{
			`begin insert(beer, values[("exportgold", "stout", "guineken", 6)]); end`,
			`begin update(beer, name = "a", [alcohol = alcohol - 1]); end`,
			`begin delete(brewery, select(brewery, name = "guineken")); end`,
		} {
			prog, err := lang.ParseTransaction(src, cat.Schema())
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []core.Options{{}, defaultEngine} {
				static, _, err := core.New(cat, opts).Modify(txn.Bracket(prog))
				if err != nil {
					t.Fatalf("static Modify: %v", err)
				}
				dynamic, _, err := dynamicModify(cat, opts, txn.Bracket(prog))
				if err != nil {
					t.Fatalf("dynamic Modify: %v", err)
				}
				if static.String() != dynamic.String() {
					t.Errorf("%s under %+v: static and dynamic modification differ:\n--- static ---\n%s\n--- dynamic ---\n%s", src, opts, static, dynamic)
				}
			}
		}
	}
}
