// Package fragment simulates the parallel PRISMA/DB environment of the
// paper's Section 7: relations are hash-fragmented over N nodes (the POOMA
// multiprocessor's one-fragment-per-node scheme of [7]), and constraint
// enforcement programs run fragment-locally on every node in parallel.
//
// A check is sound to run fragment-locally when its expression is
// localizable: selections and projections always are; joins, semijoins and
// antijoins are when both inputs are fragmented on the equi-join attributes
// (so matching tuples are co-located). Non-localizable expressions fall back
// to a gather: the fragments are merged on one node first, which models the
// data shipping a real system would do.
package fragment

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
)

// Placement records the fragmentation attribute (zero-based column) of each
// relation. Relations absent from the map are replicated to every node,
// which models small reference tables.
type Placement map[string]int

// Cluster is a simulated N-node shared-nothing machine holding one fragment
// of every fragmented relation per node.
type Cluster struct {
	sch       *schema.Database
	nodes     int
	placement Placement
	frags     []map[string]*relation.Relation // per node: current fragments
	ins       []map[string]*relation.Relation // per node: net-insert deltas
	del       []map[string]*relation.Relation // per node: net-delete deltas
}

// NewCluster builds an empty cluster of the given size.
func NewCluster(sch *schema.Database, nodes int, placement Placement) (*Cluster, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("fragment: cluster needs at least 1 node")
	}
	for rel, col := range placement {
		rs, ok := sch.Relation(rel)
		if !ok {
			return nil, fmt.Errorf("fragment: placement for unknown relation %q", rel)
		}
		if col < 0 || col >= rs.Arity() {
			return nil, fmt.Errorf("fragment: placement column %d out of range for %s", col, rs)
		}
	}
	c := &Cluster{sch: sch, nodes: nodes, placement: placement}
	c.frags = make([]map[string]*relation.Relation, nodes)
	c.ins = make([]map[string]*relation.Relation, nodes)
	c.del = make([]map[string]*relation.Relation, nodes)
	for i := 0; i < nodes; i++ {
		c.frags[i] = make(map[string]*relation.Relation)
		c.ins[i] = make(map[string]*relation.Relation)
		c.del[i] = make(map[string]*relation.Relation)
		for _, name := range sch.Names() {
			rs, _ := sch.Relation(name)
			c.frags[i][name] = relation.New(rs)
			c.ins[i][name] = relation.New(rs)
			c.del[i][name] = relation.New(rs)
		}
	}
	return c, nil
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.nodes }

// nodeOf hashes the fragmentation attribute of a tuple to a node.
func (c *Cluster) nodeOf(rel string, t relation.Tuple) (int, bool) {
	col, fragmented := c.placement[rel]
	if !fragmented {
		return 0, false // replicated
	}
	h := fnv.New64a()
	h.Write(t[col].AppendOrderedKey(nil))
	return int(h.Sum64() % uint64(c.nodes)), true
}

// Load distributes the tuples of r over the cluster (replacing existing
// fragments is not supported; Load is for initial population).
func (c *Cluster) Load(r *relation.Relation) error {
	name := r.Schema().Name
	if _, ok := c.sch.Relation(name); !ok {
		return fmt.Errorf("fragment: unknown relation %q", name)
	}
	return r.ForEach(func(t relation.Tuple) error {
		if node, fragmented := c.nodeOf(name, t); fragmented {
			c.frags[node][name].InsertUnchecked(t)
		} else {
			for i := 0; i < c.nodes; i++ {
				c.frags[i][name].InsertUnchecked(t)
			}
		}
		return nil
	})
}

// ApplyInserts adds tuples to a relation's fragments and records them in the
// per-node insert deltas, modelling a transaction's pending insertions.
func (c *Cluster) ApplyInserts(rel string, tuples *relation.Relation) error {
	if _, ok := c.sch.Relation(rel); !ok {
		return fmt.Errorf("fragment: unknown relation %q", rel)
	}
	return tuples.ForEach(func(t relation.Tuple) error {
		if node, fragmented := c.nodeOf(rel, t); fragmented {
			if !c.frags[node][rel].Contains(t) {
				c.frags[node][rel].InsertUnchecked(t)
				c.ins[node][rel].InsertUnchecked(t)
			}
		} else {
			for i := 0; i < c.nodes; i++ {
				if !c.frags[i][rel].Contains(t) {
					c.frags[i][rel].InsertUnchecked(t)
					c.ins[i][rel].InsertUnchecked(t)
				}
			}
		}
		return nil
	})
}

// ApplyDeletes removes tuples from a relation's fragments and records them
// in the per-node delete deltas.
func (c *Cluster) ApplyDeletes(rel string, tuples *relation.Relation) error {
	if _, ok := c.sch.Relation(rel); !ok {
		return fmt.Errorf("fragment: unknown relation %q", rel)
	}
	return tuples.ForEach(func(t relation.Tuple) error {
		if node, fragmented := c.nodeOf(rel, t); fragmented {
			if c.frags[node][rel].Delete(t) {
				c.del[node][rel].InsertUnchecked(t)
			}
		} else {
			for i := 0; i < c.nodes; i++ {
				if c.frags[i][rel].Delete(t) {
					c.del[i][rel].InsertUnchecked(t)
				}
			}
		}
		return nil
	})
}

// ClearDeltas commits the pending transaction: deltas are dropped, current
// fragments stay.
func (c *Cluster) ClearDeltas() {
	for i := 0; i < c.nodes; i++ {
		for _, name := range c.sch.Names() {
			rs, _ := c.sch.Relation(name)
			c.ins[i][name] = relation.New(rs)
			c.del[i][name] = relation.New(rs)
		}
	}
}

// nodeEnv exposes one node's fragments as an algebra evaluation
// environment. The pre-transaction state is reconstructed as
// (current − ins) ∪ del on demand.
type nodeEnv struct {
	c    *Cluster
	node int
}

// Rel implements algebra.Env.
func (e nodeEnv) Rel(name string, aux algebra.AuxKind) (*relation.Relation, error) {
	cur, ok := e.c.frags[e.node][name]
	if !ok {
		return nil, fmt.Errorf("fragment: unknown relation %q", name)
	}
	switch aux {
	case algebra.AuxCur:
		return cur, nil
	case algebra.AuxIns:
		return e.c.ins[e.node][name], nil
	case algebra.AuxDel:
		return e.c.del[e.node][name], nil
	case algebra.AuxOld:
		old := cur.Clone()
		old.DiffInPlace(e.c.ins[e.node][name])
		old.UnionInPlace(e.c.del[e.node][name])
		return old, nil
	default:
		return nil, fmt.Errorf("fragment: unknown auxiliary kind %v", aux)
	}
}

// Temp implements algebra.Env; constraint checks have no temps.
func (e nodeEnv) Temp(name string) (*relation.Relation, error) {
	return nil, fmt.Errorf("fragment: temporary relation %q not available on nodes", name)
}

// CheckResult reports the outcome of a parallel constraint check.
type CheckResult struct {
	// Violations counts witness tuples found across all nodes.
	Violations int
	// Localized reports whether every alarm ran fragment-locally; false
	// means at least one alarm needed a gather.
	Localized bool
	// NodesUsed is the number of worker nodes that evaluated checks.
	NodesUsed int
}

// CheckProgram evaluates the alarm statements of an enforcement program
// against the cluster. Localizable alarms run on every node in parallel;
// others run against a gathered (merged) environment. Non-alarm statements
// are rejected — parallel enforcement applies to checking programs only.
func (c *Cluster) CheckProgram(prog algebra.Program) (*CheckResult, error) {
	res := &CheckResult{Localized: true, NodesUsed: c.nodes}
	for _, st := range prog {
		al, ok := st.(*algebra.Alarm)
		if !ok {
			return nil, fmt.Errorf("fragment: parallel check supports alarm statements only, got %T", st)
		}
		if Localizable(al.Expr, c.sch, c.placement) {
			n, err := c.checkLocal(al.Expr)
			if err != nil {
				return nil, err
			}
			res.Violations += n
		} else {
			res.Localized = false
			n, err := c.checkGathered(al.Expr)
			if err != nil {
				return nil, err
			}
			res.Violations += n
		}
	}
	return res, nil
}

// checkLocal evaluates the expression on every node in parallel and sums
// witness counts.
func (c *Cluster) checkLocal(e algebra.Expr) (int, error) {
	var wg sync.WaitGroup
	counts := make([]int, c.nodes)
	errs := make([]error, c.nodes)
	for i := 0; i < c.nodes; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			// Each node evaluates an independent clone so memoized schema
			// state is never shared across goroutines.
			local := algebra.CloneExpr(e)
			tenv := algebra.NewTypeEnv(c.sch)
			if _, err := local.TypeCheck(tenv); err != nil {
				errs[node] = err
				return
			}
			r, err := local.Eval(nodeEnv{c: c, node: node})
			if err != nil {
				errs[node] = err
				return
			}
			counts[node] = r.Len()
		}(i)
	}
	wg.Wait()
	total := 0
	for i := 0; i < c.nodes; i++ {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += counts[i]
	}
	return total, nil
}

// checkGathered merges all fragments into one environment and evaluates
// there (the data-shipping fallback).
func (c *Cluster) checkGathered(e algebra.Expr) (int, error) {
	merged := c.Gather()
	local := algebra.CloneExpr(e)
	tenv := algebra.NewTypeEnv(c.sch)
	if _, err := local.TypeCheck(tenv); err != nil {
		return 0, err
	}
	r, err := local.Eval(merged)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

// Gather merges every node's fragments (and deltas) into a single
// in-memory environment.
func (c *Cluster) Gather() algebra.Env {
	g := &gatheredEnv{
		cur: make(map[string]*relation.Relation),
		ins: make(map[string]*relation.Relation),
		del: make(map[string]*relation.Relation),
	}
	for _, name := range c.sch.Names() {
		rs, _ := c.sch.Relation(name)
		cur, ins, del := relation.New(rs), relation.New(rs), relation.New(rs)
		_, fragmented := c.placement[name]
		limit := c.nodes
		if !fragmented {
			limit = 1 // replicated: one copy suffices
		}
		for i := 0; i < limit; i++ {
			cur.UnionInPlace(c.frags[i][name])
			ins.UnionInPlace(c.ins[i][name])
			del.UnionInPlace(c.del[i][name])
		}
		g.cur[name], g.ins[name], g.del[name] = cur, ins, del
	}
	return g
}

type gatheredEnv struct {
	cur, ins, del map[string]*relation.Relation
}

func (g *gatheredEnv) Rel(name string, aux algebra.AuxKind) (*relation.Relation, error) {
	var m map[string]*relation.Relation
	switch aux {
	case algebra.AuxCur:
		m = g.cur
	case algebra.AuxIns:
		m = g.ins
	case algebra.AuxDel:
		m = g.del
	case algebra.AuxOld:
		cur, ok := g.cur[name]
		if !ok {
			return nil, fmt.Errorf("fragment: unknown relation %q", name)
		}
		old := cur.Clone()
		old.DiffInPlace(g.ins[name])
		old.UnionInPlace(g.del[name])
		return old, nil
	default:
		return nil, fmt.Errorf("fragment: unknown auxiliary kind %v", aux)
	}
	r, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("fragment: unknown relation %q", name)
	}
	return r, nil
}

func (g *gatheredEnv) Temp(string) (*relation.Relation, error) {
	return nil, fmt.Errorf("fragment: no temporary relations in gathered environment")
}
