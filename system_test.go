package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSystemInvariant is the whole-system metamorphic test: under a random
// stream of transactions against a database with aborting rules of every
// class, the subsystem must guarantee that (a) after every committed
// transaction all constraints hold (checked by independent full-state
// queries), and (b) an aborted transaction leaves the observable state
// byte-identical. The default engine and the full-state and unpruned
// differential reference engines must agree transaction by transaction, and
// no run may change a stored integrity program.
func TestSystemInvariant(t *testing.T) {
	type variant struct {
		name string
		db   *DB
	}
	build := func(db *DB) *DB {
		db.MustCreateRelation(`relation r(a int, b int)`)
		db.MustCreateRelation(`relation s(k int, v int)`)
		db.MustDefineConstraint("domain", `forall x (x in r implies x.a >= 0)`)
		db.MustDefineConstraint("referential", `forall x (x in r implies exists y (y in s and x.b = y.k))`)
		db.MustDefineConstraint("pair", `forall x (x in r implies forall y (y in s implies x.a <> y.v))`)
		db.MustDefineConstraint("cap", `CNT(r) <= 12`)
		return db
	}
	variants := []variant{
		{"default", build(Open(nil))},
		{"full", build(withEngine(Open(nil), core.Options{}))},
		{"differential-unpruned", build(withEngine(Open(nil), core.Options{UseDifferential: true}))},
	}
	stored := make([]string, len(variants))
	for i, v := range variants {
		stored[i] = renderPrograms(v.db)
	}

	// Constraint-as-query: an independent check used as the invariant
	// oracle (counts violating witnesses directly).
	checks := map[string]string{
		"domain":      `select(r, a < 0)`,
		"referential": `antijoin(r, s, #2 = #3)`,
		"pair":        `semijoin(r, s, #1 = #4)`,
	}

	rng := rand.New(rand.NewSource(2024))
	randTxn := func() string {
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf(`begin insert(s, values[(%d, %d)]); end`, rng.Intn(6), rng.Intn(9)-1)
		case 1:
			return fmt.Sprintf(`begin insert(r, values[(%d, %d)]); end`, rng.Intn(9)-2, rng.Intn(8))
		case 2:
			return fmt.Sprintf(`begin delete(s, select(s, k = %d)); end`, rng.Intn(6))
		case 3:
			return fmt.Sprintf(`begin delete(r, select(r, a = %d)); end`, rng.Intn(7))
		default:
			return fmt.Sprintf(`begin
				insert(s, values[(%d, %d)]);
				insert(r, values[(%d, %d)]);
				update(r, b = %d, [a = a + 1]);
			end`, rng.Intn(6), rng.Intn(9)-1, rng.Intn(9)-2, rng.Intn(8), rng.Intn(6))
		}
	}

	snapshot := func(db *DB) string {
		out := ""
		for _, rel := range []string{"r", "s"} {
			rows, err := db.Query(rel)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%s=%v;", rel, rows.Data)
		}
		return out
	}

	committed, aborted := 0, 0
	for step := 0; step < 400; step++ {
		src := randTxn()
		var verdicts []bool
		for _, v := range variants {
			before := snapshot(v.db)
			res, err := v.db.Submit(src)
			if err != nil {
				t.Fatalf("%s step %d (%s): %v", v.name, step, src, err)
			}
			verdicts = append(verdicts, res.Committed)
			if res.Committed {
				// Invariant (a): all constraints hold in the new state.
				for cname, q := range checks {
					rows, err := v.db.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows.Data) != 0 {
						t.Fatalf("%s step %d: constraint %s violated after commit of %s\nwitnesses: %v",
							v.name, step, cname, src, rows.Data)
					}
				}
				n, _ := v.db.Count("r")
				if n > 12 {
					t.Fatalf("%s step %d: cap violated: |r| = %d", v.name, step, n)
				}
			} else {
				// Invariant (b): aborted transactions change nothing.
				if after := snapshot(v.db); after != before {
					t.Fatalf("%s step %d: abort leaked state\nbefore %s\nafter  %s", v.name, step, before, after)
				}
				if res.Constraint == "" {
					t.Fatalf("%s step %d: abort without a named constraint: %s", v.name, step, res.Reason)
				}
			}
		}
		// All strategies agree on the verdict.
		for i := 1; i < len(verdicts); i++ {
			if verdicts[i] != verdicts[0] {
				t.Fatalf("step %d (%s): %s committed=%v but %s committed=%v",
					step, src, variants[0].name, verdicts[0], variants[i].name, verdicts[i])
			}
		}
		if verdicts[0] {
			committed++
		} else {
			aborted++
		}
	}
	if committed == 0 || aborted == 0 {
		t.Errorf("degenerate stream: %d committed, %d aborted", committed, aborted)
	}
	t.Logf("stream: %d committed, %d aborted", committed, aborted)
	for i, v := range variants {
		if got := renderPrograms(v.db); got != stored[i] {
			t.Errorf("%s: executing changed the stored programs\nbefore:\n%s\nafter:\n%s", v.name, stored[i], got)
		}
	}
}

// TestSystemDatabasesConverge submits the same committed prefix to the
// default engine and the full-state reference engine and checks the final
// states match — enforcement strategy must not affect semantics.
func TestSystemDatabasesConverge(t *testing.T) {
	mk := func(db *DB) *DB {
		db.MustCreateRelation(`relation t(a int)`)
		db.MustDefineConstraint("pos", `forall x (x in t implies x.a >= 0)`)
		return db
	}
	a, b := mk(withEngine(Open(nil), core.Options{})), mk(Open(nil))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf(`begin insert(t, values[(%d)]); end`, rng.Intn(10)-3)
		ra, err := a.Submit(src)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Submit(src)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Committed != rb.Committed {
			t.Fatalf("step %d: verdicts diverge", i)
		}
	}
	qa, _ := a.Query(`t`)
	qb, _ := b.Query(`t`)
	if fmt.Sprint(qa.Data) != fmt.Sprint(qb.Data) {
		t.Errorf("final states diverge:\n%v\n%v", qa.Data, qb.Data)
	}
}

// renderPrograms renders every form of every integrity program db's catalog
// stores — full, differential, each part's checks and the repair — down to
// the unexported state type checking leaves in the nodes, so a run that
// executes a stored statement instead of a copy shows.
func renderPrograms(db *DB) string {
	var b strings.Builder
	for _, ip := range db.cat.Programs() {
		fmt.Fprintf(&b, "%s full:\n", ip.RuleName)
		dump(&b, reflect.ValueOf(ip.Full))
		b.WriteString("\ndifferential:\n")
		dump(&b, reflect.ValueOf(ip.Differential))
		for i, pl := range ip.Plans {
			fmt.Fprintf(&b, "\npart %d:\n", i)
			dump(&b, reflect.ValueOf(pl.Full))
			dump(&b, reflect.ValueOf(pl.Checks))
		}
		if ip.Repair != nil {
			b.WriteString("\nrepair:\n")
			dump(&b, reflect.ValueOf(ip.Repair.Program))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// dump writes v and everything it points to, unexported fields included.
func dump(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		dump(b, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(b, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(b, "%s:", v.Type().Field(i).Name)
			dump(b, v.Field(i))
			b.WriteString(" ")
		}
		b.WriteString("}")
	case reflect.Slice, reflect.Array:
		b.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			dump(b, v.Index(i))
			b.WriteString(" ")
		}
		b.WriteString("]")
	case reflect.Map:
		fmt.Fprintf(b, "map[%d]", v.Len())
	default:
		fmt.Fprintf(b, "%v", v)
	}
}
