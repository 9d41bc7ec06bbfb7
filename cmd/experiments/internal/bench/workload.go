// Package bench provides the workload generators and catalog builders
// cmd/experiments uses to regenerate the paper's Section 7 evaluation: a
// key ("parent") relation, a foreign-key ("child") relation referencing it,
// and a batch of new child tuples to insert — the 5 000 / 50 000 / 5 000
// configuration of the POOMA experiment — plus parameter sweeps around it.
package bench

import (
	"fmt"
	"math/rand"

	"repro/cmd/experiments/internal/fragment"
	"repro/internal/lang"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// PaperConfig parameterizes the Section 7 workload.
type PaperConfig struct {
	Keys    int   // parent (key relation) cardinality; paper: 5000
	FKs     int   // child (foreign-key relation) cardinality; paper: 50000
	Inserts int   // new child tuples inserted by the transaction; paper: 5000
	Seed    int64 // deterministic data generation
}

// DefaultPaperConfig is the exact Section 7 configuration.
func DefaultPaperConfig() PaperConfig {
	return PaperConfig{Keys: 5000, FKs: 50000, Inserts: 5000, Seed: 1993}
}

// Schema returns the workload's database schema:
// parent(id int, name string) and child(id int, parent int, qty int).
func (c PaperConfig) Schema() *schema.Database {
	parent := schema.MustRelation("parent",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "name", Type: value.KindString},
	)
	child := schema.MustRelation("child",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "parent", Type: value.KindInt},
		schema.Attribute{Name: "qty", Type: value.KindInt},
	)
	return schema.MustDatabase(parent, child)
}

// Generate produces the base relations and the insert batch. Every child
// references an existing parent, so the base state and the post-insert state
// are consistent — matching the paper's measurement of successful checks.
func (c PaperConfig) Generate() (parent, child, newChild *relation.Relation, err error) {
	sch := c.Schema()
	ps, _ := sch.Relation("parent")
	cs, _ := sch.Relation("child")
	rng := rand.New(rand.NewSource(c.Seed))

	parent = relation.New(ps)
	for i := 0; i < c.Keys; i++ {
		parent.InsertUnchecked(relation.Tuple{
			value.Int(int64(i)),
			value.String(fmt.Sprintf("key-%d", i)),
		})
	}
	child = relation.New(cs)
	for i := 0; i < c.FKs; i++ {
		child.InsertUnchecked(relation.Tuple{
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(c.Keys))),
			value.Int(int64(rng.Intn(1000))),
		})
	}
	newChild = relation.New(cs)
	for i := 0; i < c.Inserts; i++ {
		newChild.InsertUnchecked(relation.Tuple{
			value.Int(int64(c.FKs + i)),
			value.Int(int64(rng.Intn(c.Keys))),
			value.Int(int64(rng.Intn(1000))),
		})
	}
	return parent, child, newChild, nil
}

// ReferentialRule returns the paper's referential integrity rule for the
// workload: every child.parent must exist in parent.id (aborting).
func ReferentialRule() (*rules.Rule, error) {
	return lang.ParseConstraintRule("referential",
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`)
}

// DomainRule returns the paper's domain constraint analogue: child
// quantities are non-negative (aborting).
func DomainRule() (*rules.Rule, error) {
	return lang.ParseConstraintRule("domain",
		`forall x (x in child implies x.qty >= 0)`)
}

// Catalog compiles the workload's rules against the workload schema.
func (c PaperConfig) Catalog() (*rules.Catalog, error) {
	cat := rules.NewCatalog(c.Schema())
	ref, err := ReferentialRule()
	if err != nil {
		return nil, err
	}
	if err := cat.Add(ref); err != nil {
		return nil, err
	}
	dom, err := DomainRule()
	if err != nil {
		return nil, err
	}
	if err := cat.Add(dom); err != nil {
		return nil, err
	}
	return cat, nil
}

// NewStore builds a single-node database loaded with the base state.
func (c PaperConfig) NewStore(parent, child *relation.Relation) (*storage.Database, error) {
	db := storage.New(c.Schema())
	if err := db.Load(parent); err != nil {
		return nil, err
	}
	if err := db.Load(child); err != nil {
		return nil, err
	}
	return db, nil
}

// Placement fragments parent on its key (column 0) and child on its foreign
// key (column 1), so the referential check is co-located and fragment-local
// — the scheme of [7].
func (c PaperConfig) Placement() fragment.Placement {
	return fragment.Placement{"parent": 0, "child": 1}
}

// NewCluster builds an n-node cluster loaded with the base state.
func (c PaperConfig) NewCluster(nodes int, parent, child *relation.Relation) (*fragment.Cluster, error) {
	cl, err := fragment.NewCluster(c.Schema(), nodes, c.Placement())
	if err != nil {
		return nil, err
	}
	if err := cl.Load(parent); err != nil {
		return nil, err
	}
	if err := cl.Load(child); err != nil {
		return nil, err
	}
	return cl, nil
}

// GenViolations returns a batch of child tuples with dangling parents, used
// by tests that need the checks to fire.
func (c PaperConfig) GenViolations(n int) *relation.Relation {
	cs, _ := c.Schema().Relation("child")
	out := relation.New(cs)
	for i := 0; i < n; i++ {
		out.InsertUnchecked(relation.Tuple{
			value.Int(int64(1_000_000 + i)),
			value.Int(int64(c.Keys + 1 + i)), // no such parent
			value.Int(1),
		})
	}
	return out
}
