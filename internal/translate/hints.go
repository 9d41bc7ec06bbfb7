package translate

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/schema"
)

// IndexHint names a relation and the attribute columns its enforcement
// programs probe — the input to automatic secondary indexing, which builds
// an index over exactly that column list. A join hint carries the canonical
// (ascending, duplicate-free) equality-join columns; a range hint carries a
// single comparison-bounded column.
type IndexHint struct {
	Relation string
	Columns  []int
	Attrs    []string
	// Ordered marks a range hint. Every index answers both equality and
	// range probes, so the engine does not read it; it is kept for
	// benchmarks/txbench, which does.
	Ordered bool
}

// IndexHints derives the secondary indexes the given type-checked programs
// can probe. It reads program nodes rather than constraint classes, so an
// index is hinted only where an operator of a program that runs would use
// it:
//
//   - a join, semijoin or antijoin probes a side that is a direct reference
//     to a base relation on its equality-join columns (an antijoin only its
//     right side, since its output needs every left tuple): a join hint;
//   - a selection over a base relation, and an update's Where, range-probe
//     the columns their predicate compares against constants: a range hint
//     per column.
//
// So the referential check antijoin(ins(child), parent) hints parent on its
// key and the deletion-side semijoin(child, del(parent)) hints child on its
// foreign key, while the domain check select(ins(R), not c) reads only the
// transaction's delta and hints nothing. Nodes whose columns cannot be
// resolved contribute nothing; duplicate hints collapse.
func IndexHints(progs []algebra.Program, db *schema.Database) []IndexHint {
	h := hinter{db: db, seen: make(map[string]bool)}
	for _, prog := range progs {
		for _, st := range prog {
			h.stmt(st)
		}
	}
	return h.out
}

// hinter accumulates the hints of a walk over program nodes.
type hinter struct {
	db   *schema.Database
	seen map[string]bool
	out  []IndexHint
}

func (h *hinter) stmt(st algebra.Stmt) {
	switch x := st.(type) {
	case *algebra.Alarm:
		h.expr(x.Expr)
	case *algebra.Assign:
		h.expr(x.Expr)
	case *algebra.Insert:
		h.expr(x.Src)
	case *algebra.Delete:
		h.expr(x.Src)
	case *algebra.Update:
		h.rangeCols(x.Rel, x.Where)
	}
}

func (h *hinter) expr(e algebra.Expr) {
	switch x := e.(type) {
	case *algebra.Select:
		if r, ok := baseRel(x.In); ok {
			h.rangeCols(r.Name, x.Pred)
		}
		h.expr(x.In)
	case *algebra.Join:
		h.join(x)
		h.expr(x.L)
		h.expr(x.R)
	case *algebra.Project:
		h.expr(x.In)
	case *algebra.Rename:
		h.expr(x.In)
	case *algebra.Aggregate:
		h.expr(x.In)
	case *algebra.SetExpr:
		h.expr(x.L)
		h.expr(x.R)
	}
}

// join hints the equality-join columns of each side the join can probe.
func (h *hinter) join(j *algebra.Join) {
	ls, rs := j.L.Schema(), j.R.Schema()
	if j.Pred == nil || ls == nil || rs == nil {
		return
	}
	eqL, eqR, err := algebra.EquiJoinColumns(j.Pred, ls, rs)
	if err != nil {
		return
	}
	if r, ok := baseRel(j.L); ok && j.Kind != algebra.JoinAnti {
		h.add(r.Name, eqL, false)
	}
	if r, ok := baseRel(j.R); ok {
		h.add(r.Name, eqR, false)
	}
}

// baseRel unwraps a direct reference to a base relation's current or old
// state, the only inputs the evaluator probes.
func baseRel(e algebra.Expr) (*algebra.Rel, bool) {
	r, ok := e.(*algebra.Rel)
	return r, ok && (r.Aux == algebra.AuxCur || r.Aux == algebra.AuxOld)
}

// rangeCols adds a range hint per column of rel that pred bounds by a
// constant.
func (h *hinter) rangeCols(rel string, pred algebra.Scalar) {
	rs, ok := h.db.Relation(rel)
	if !ok || pred == nil {
		return
	}
	cols, err := algebra.RangeCompareColumns(pred, rs)
	if err != nil {
		return
	}
	for _, c := range cols {
		h.add(rel, []int{c}, true)
	}
}

func (h *hinter) add(rel string, cols []int, ordered bool) {
	if len(cols) == 0 {
		return
	}
	rs, ok := h.db.Relation(rel)
	if !ok {
		return
	}
	canon := append([]int(nil), cols...)
	if !ordered {
		sort.Ints(canon)
		canon = dedupInts(canon)
	}
	key := rel + "\x00"
	if ordered {
		key = rel + "\x00ordered\x00"
	}
	attrs := make([]string, len(canon))
	for i, c := range canon {
		if c < 0 || c >= rs.Arity() {
			return
		}
		attrs[i] = rs.Attrs[c].Name
		key += "," + attrs[i]
	}
	if h.seen[key] {
		return
	}
	h.seen[key] = true
	h.out = append(h.out, IndexHint{Relation: rel, Columns: canon, Attrs: attrs, Ordered: ordered})
}

// dedupInts removes adjacent duplicates from a sorted slice.
func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
