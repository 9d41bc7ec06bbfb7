package fragment_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/cmd/experiments/internal/bench"
	"repro/cmd/experiments/internal/fragment"
	"repro/internal/algebra"
	"repro/internal/lang"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func clusterSchema() *schema.Database {
	return bench.PaperConfig{}.Schema() // parent(id, name), child(id, parent, qty)
}

func smallWorkload(t *testing.T, keys, fks int) (*relation.Relation, *relation.Relation) {
	t.Helper()
	cfg := bench.PaperConfig{Keys: keys, FKs: fks, Inserts: 0, Seed: 7}
	parent, child, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return parent, child
}

func TestLoadDistributesAllTuples(t *testing.T) {
	sch := clusterSchema()
	parent, child := smallWorkload(t, 20, 100)
	cl, err := fragment.NewCluster(sch, 4, fragment.Placement{"parent": 0, "child": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Load(parent); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load(child); err != nil {
		t.Fatal(err)
	}
	env := cl.Gather()
	gp, _ := env.Rel("parent", algebra.AuxCur)
	gc, _ := env.Rel("child", algebra.AuxCur)
	if gp.Len() != 20 || gc.Len() != 100 {
		t.Errorf("gathered sizes = %d/%d, want 20/100", gp.Len(), gc.Len())
	}
}

func TestReplicatedRelationOnEveryNode(t *testing.T) {
	sch := clusterSchema()
	parent, _ := smallWorkload(t, 10, 0)
	// No placement for parent: replicated.
	cl, err := fragment.NewCluster(sch, 3, fragment.Placement{"child": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Load(parent); err != nil {
		t.Fatal(err)
	}
	// A localizable count per node would triple-count a replicated
	// relation; Gather must not.
	env := cl.Gather()
	gp, _ := env.Rel("parent", algebra.AuxCur)
	if gp.Len() != 10 {
		t.Errorf("gathered replicated relation = %d tuples, want 10", gp.Len())
	}
}

// parallelVerdictMatchesSingleNode is the fragmentation soundness property:
// for the workload's enforcement programs, an N-node parallel check and a
// 1-node check agree on violation presence.
func TestParallelVerdictMatchesSingleNode(t *testing.T) {
	cfg := bench.PaperConfig{Keys: 30, FKs: 200, Inserts: 50, Seed: 11}
	cat, err := cfg.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		parent, child, newChild, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []int
		for _, nodes := range []int{1, 4} {
			cl, err := cfg.NewCluster(nodes, parent, child)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.ApplyInserts("child", newChild); err != nil {
				t.Fatal(err)
			}
			// Sometimes break integrity: dangling children and deleted
			// parents, same mutation for both cluster sizes (rng cloned).
			if trial%2 == 0 {
				bad := cfg.GenViolations(1 + trial%3)
				if err := cl.ApplyInserts("child", bad); err != nil {
					t.Fatal(err)
				}
			}
			total := 0
			for _, ruleName := range []string{"referential", "domain"} {
				ip, _ := cat.Program(ruleName)
				for _, diff := range []bool{false, true} {
					res, err := cl.CheckProgram(ip.Program(diff))
					if err != nil {
						t.Fatal(err)
					}
					if res.Violations > 0 {
						total++
					}
				}
			}
			verdicts = append(verdicts, total)
		}
		if verdicts[0] != verdicts[1] {
			t.Fatalf("trial %d: 1-node verdicts=%d, 4-node verdicts=%d", trial, verdicts[0], verdicts[1])
		}
		_ = rng
	}
}

func TestApplyDeletesMaintainsDeltas(t *testing.T) {
	cfg := bench.PaperConfig{Keys: 10, FKs: 30, Inserts: 0, Seed: 5}
	parent, child, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cfg.NewCluster(2, parent, child)
	if err != nil {
		t.Fatal(err)
	}
	victim := relation.New(parent.Schema())
	victim.InsertUnchecked(parent.SortedTuples()[0])
	if err := cl.ApplyDeletes("parent", victim); err != nil {
		t.Fatal(err)
	}
	env := cl.Gather()
	del, _ := env.Rel("parent", algebra.AuxDel)
	if del.Len() != 1 {
		t.Errorf("delete delta = %d, want 1", del.Len())
	}
	cur, _ := env.Rel("parent", algebra.AuxCur)
	if cur.Len() != 9 {
		t.Errorf("current parent = %d, want 9", cur.Len())
	}
	old, _ := env.Rel("parent", algebra.AuxOld)
	if old.Len() != 10 {
		t.Errorf("old parent = %d, want 10", old.Len())
	}
	cl.ClearDeltas()
	env = cl.Gather()
	del, _ = env.Rel("parent", algebra.AuxDel)
	if del.Len() != 0 {
		t.Error("ClearDeltas left delete delta")
	}
}

func TestDeletedParentDetectedInParallel(t *testing.T) {
	cfg := bench.PaperConfig{Keys: 20, FKs: 100, Inserts: 0, Seed: 9}
	parent, child, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := cfg.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cfg.NewCluster(4, parent, child)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a referenced parent; the differential check must catch the
	// dangling children via del(parent).
	victim := relation.New(parent.Schema())
	victim.InsertUnchecked(parent.SortedTuples()[0])
	if err := cl.ApplyDeletes("parent", victim); err != nil {
		t.Fatal(err)
	}
	ip, _ := cat.Program("referential")
	res, err := cl.CheckProgram(ip.Program(true))
	if err != nil {
		t.Fatal(err)
	}
	full, err := cl.CheckProgram(ip.Program(false))
	if err != nil {
		t.Fatal(err)
	}
	if (res.Violations > 0) != (full.Violations > 0) {
		t.Fatalf("differential=%d full=%d disagree", res.Violations, full.Violations)
	}
}

func TestLocalizableRules(t *testing.T) {
	sch := clusterSchema()
	placement := fragment.Placement{"parent": 0, "child": 1}
	parse := func(src string) algebra.Expr {
		prog, err := lang.ParseProgram("q := "+src, sch)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return prog[0].(*algebra.Assign).Expr
	}
	cases := []struct {
		src  string
		want bool
	}{
		{`select(child, qty < 0)`, true},
		{`project(child, parent)`, true},
		// Co-located equi-antijoin: child fragmented on parent, parent on id.
		{`antijoin(child, parent, #2 = #4)`, true},
		// Antijoin on a non-fragmentation attribute: matches may be remote.
		{`antijoin(child, parent, #1 = #4)`, false},
		// Semijoin tolerates any fragmented side via per-node union.
		{`semijoin(child, parent, #1 = #4)`, false},                 // neither side replicated nor co-located
		{`cnt(child)`, false},                                       // aggregates gather
		{`diff(project(child, parent), project(parent, id))`, true}, // aligned columns
		{`diff(project(child, qty), project(parent, id))`, false},   // misaligned
		{`join(child, parent, #2 = #4)`, true},
	}
	for _, c := range cases {
		if got := fragment.Localizable(parse(c.src), sch, placement); got != c.want {
			t.Errorf("Localizable(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestGatherFallbackStillCorrect(t *testing.T) {
	cfg := bench.PaperConfig{Keys: 10, FKs: 50, Inserts: 0, Seed: 13}
	parent, child, _, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cfg.NewCluster(3, parent, child)
	if err != nil {
		t.Fatal(err)
	}
	// CNT-based check is not localizable → gather path.
	sch := cfg.Schema()
	prog, err := lang.ParseProgram(fmt.Sprintf(
		`alarm(select(cnt(child), not (CNT = %d)), "count")`, 50), sch)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.TypeCheck(algebra.NewTypeEnv(sch)); err != nil {
		t.Fatal(err)
	}
	res, err := cl.CheckProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Localized {
		t.Error("CNT check claimed localized")
	}
	if res.Violations != 0 {
		t.Errorf("count check fired with %d violations, want 0", res.Violations)
	}
}

func TestClusterValidation(t *testing.T) {
	sch := clusterSchema()
	if _, err := fragment.NewCluster(sch, 0, nil); err == nil {
		t.Error("0-node cluster accepted")
	}
	if _, err := fragment.NewCluster(sch, 2, fragment.Placement{"nosuch": 0}); err == nil {
		t.Error("placement for unknown relation accepted")
	}
	if _, err := fragment.NewCluster(sch, 2, fragment.Placement{"parent": 9}); err == nil {
		t.Error("out-of-range placement column accepted")
	}
	cl, err := fragment.NewCluster(sch, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := schema.MustRelation("other", schema.Attribute{Name: "x", Type: value.KindInt})
	if err := cl.Load(relation.New(other)); err == nil {
		t.Error("loading unknown relation accepted")
	}
}

func TestCheckProgramRejectsNonAlarms(t *testing.T) {
	sch := clusterSchema()
	cl, err := fragment.NewCluster(sch, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseProgram(`t := parent`, sch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CheckProgram(prog); err == nil {
		t.Error("non-alarm program accepted by parallel checker")
	}
}
