package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// relSum is a relation's cardinality and an order-independent checksum of
// its rows.
type relSum struct {
	count int
	sum   uint64
}

func hashRow(vals ...int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// stateExpr is the query whose rows stateSums and modelSums checksum: the
// modelled columns of rel.
func (w *workload) stateExpr(rel string) string {
	if w.kv {
		return "project(kv, k, ver)"
	}
	return rel
}

// stateSums reads every written relation back through Query.
func stateSums(e engine, w *workload) (map[string]relSum, error) {
	out := make(map[string]relSum)
	for _, rel := range w.relNames() {
		rows, err := e.Query(w.stateExpr(rel))
		if err != nil {
			return nil, err
		}
		n, err := e.Count(rel)
		if err != nil {
			return nil, err
		}
		if n != len(rows) {
			return nil, fmt.Errorf("%s: Count says %d, Query returned %d rows", rel, n, len(rows))
		}
		s := relSum{count: n}
		for _, r := range rows {
			vals := make([]int64, len(r))
			for i, v := range r {
				x, ok := v.(int64)
				if !ok {
					return nil, fmt.Errorf("%s: column %d is %T, want int64", rel, i, v)
				}
				vals[i] = x
			}
			s.sum += hashRow(vals...)
		}
		out[rel] = s
	}
	return out, nil
}

// modelSums is what stateSums must return if every operation had the
// outcome the generators expected.
func modelSums(w *workload, gens []generator) map[string]relSum {
	out := make(map[string]relSum)
	var rows []row
	for s, rel := range w.relNames() {
		rows = rows[:0]
		for _, g := range gens {
			rows = g.live(s, rows)
		}
		if !w.kv {
			for i := int64(0); i < int64(w.hotRows); i++ {
				r := preloadedOrd(s, i)
				if s == 0 {
					for _, g := range gens {
						r.qty += g.hotBumps()[i]
					}
				}
				rows = append(rows, r)
			}
		}
		sum := relSum{count: len(rows)}
		for _, r := range rows {
			if w.kv {
				sum.sum += hashRow(r.id, r.item)
			} else {
				sum.sum += hashRow(r.id, r.item, r.qty)
			}
		}
		out[rel] = sum
	}
	return out
}

func diffSums(what string, got, want map[string]relSum) []string {
	var problems []string
	for rel, w := range want {
		if g := got[rel]; g != w {
			problems = append(problems, fmt.Sprintf("%s: %s has %d rows (checksum %x), want %d (%x)",
				what, rel, g.count, g.sum, w.count, w.sum))
		}
	}
	return problems
}

// violations re-evaluates every constraint by brute force through Query and
// reports the ones some row violates.
func violations(e engine, w *workload) ([]string, error) {
	type check struct{ name, expr string }
	var checks []check
	if w.kv {
		checks = append(checks, check{"ver_nonneg", "select(kv, ver < 0)"})
	}
	for s := 0; !w.kv && s < w.rels; s++ {
		checks = append(checks,
			check{refName(s), "antijoin(" + ordName(s) + ", item, #2 = #4)"},
			check{domName(s), "select(" + ordName(s) + ", qty < 0)"})
	}
	var problems []string
	for _, c := range checks {
		rows, err := e.Query(c.expr)
		if err != nil {
			return nil, err
		}
		if len(rows) > 0 {
			problems = append(problems, fmt.Sprintf("constraint %s is violated by %d rows", c.name, len(rows)))
		}
	}
	return problems, nil
}

// verifyState checks the state against the model and the constraints, and
// returns the state's checksums for a later comparison.
func verifyState(e engine, w *workload, gens []generator) (map[string]relSum, []string, error) {
	got, err := stateSums(e, w)
	if err != nil {
		return nil, nil, err
	}
	problems := diffSums("state vs model", got, modelSums(w, gens))
	v, err := violations(e, w)
	if err != nil {
		return nil, nil, err
	}
	return got, append(problems, v...), nil
}
