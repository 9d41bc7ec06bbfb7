package index

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// The index-layer benchmarks hold everything else fixed: one relation of n
// order rows (id unique, item shared by 4 rows, qty shared by 400), one
// index per sub-benchmark, and a delta or probe that does not depend on b.N.

type benchShape struct {
	name   string
	cols   []int
	ranged bool // probe by a single-value interval rather than by key
}

var benchShapes = []benchShape{
	{"probe-unique", []int{0}, false},
	{"probe-4-per-key", []int{1}, false},
	{"range-400-per-key", []int{2}, true},
}

func benchRow(i, n int) relation.Tuple {
	return row(int64(i), int64(i%(n/4)), int64(i%(n/400)))
}

func benchRelation(n int) *relation.Relation {
	r := relation.New(childSchema())
	for i := 0; i < n; i++ {
		r.InsertUnchecked(benchRow(i, n))
	}
	return r.Seal()
}

var benchSink int

// BenchmarkIndexApply times one commit's worth of index maintenance: build
// the two one-tuple delta relations, derive the successor. Every iteration
// starts from the same n-row index, so cost per operation is cost at n.
func BenchmarkIndexApply(b *testing.B) {
	s := childSchema()
	for _, n := range []int{4000, 64000} {
		r := benchRelation(n)
		for _, sh := range benchShapes {
			b.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(b *testing.B) {
				x := Build(r, sh.cols)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ins := relation.MustFromTuples(s, benchRow(n+i%n, n))
					del := relation.MustFromTuples(s, benchRow(i%n, n))
					benchSink += x.Apply(ins, del).Len()
				}
			})
		}
	}
}

// BenchmarkIndexProbe times one point probe or one single-value range probe
// against an n-row index.
func BenchmarkIndexProbe(b *testing.B) {
	for _, n := range []int{4000, 64000} {
		r := benchRelation(n)
		for _, sh := range benchShapes {
			b.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(b *testing.B) {
				x := Build(r, sh.cols)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := benchRow(i%n, n)[sh.cols[0]]
					if sh.ranged {
						for _, kr := range RangesFor(nil, value.KindInt, &v, &v, true, true, false, false) {
							benchSink += len(x.Range(kr))
						}
					} else {
						benchSink += len(x.Probe(KeyVals([]value.Value{v})))
					}
				}
			})
		}
	}
}
