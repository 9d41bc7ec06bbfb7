// Facade-level tests for the secondary-index subsystem: option validation,
// declared and automatic indexes, probe-granular read recording through
// Submit, and the -race stress exercising concurrent indexed probes against
// multi-relation commits.
package repro

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error
	}{
		{"negative retries", Options{MaxCommitRetries: -3}, "MaxCommitRetries"},
		{"malformed index decl", Options{Indexes: []string{"child"}}, "malformed"},
		{"empty index attrs", Options{Indexes: []string{"child()"}}, "child()"},
		{"repeated index attr", Options{Indexes: []string{"child(a, a)"}}, "repeats"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := OpenChecked(&c.opts); err == nil {
				t.Fatalf("OpenChecked(%+v) accepted invalid options", c.opts)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	if _, err := OpenChecked(nil); err != nil {
		t.Errorf("nil options rejected: %v", err)
	}
	if _, err := OpenChecked(&Options{MaxCommitRetries: 10,
		Indexes: []string{"child(parent)"}}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Open did not panic on invalid options")
			}
		}()
		Open(&Options{MaxCommitRetries: -1})
	}()
}

func TestDeclaredIndexesBuildOnCreate(t *testing.T) {
	db := Open(&Options{Indexes: []string{"child(parent)", "parent(id)"}})
	db.MustCreateRelation(`relation parent(id int, name string)`)
	db.MustCreateRelation(`relation child(id int, parent int, qty int)`)
	got := db.Indexes()
	want := []string{"child(parent)", "parent(id)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("Indexes() = %v, want %v", got, want)
	}
	if err := db.CreateIndex("child(parent)"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := db.CreateIndex("child(nosuch)"); err == nil {
		t.Error("index over unknown attribute accepted")
	}
	if err := db.CreateIndex("nosuch(parent)"); err == nil {
		t.Error("index over unknown relation accepted")
	}
	// A declaration naming an attribute the relation lacks fails creation
	// atomically: the relation must not be left half-created.
	db2 := Open(&Options{Indexes: []string{"thing(nope)"}})
	if err := db2.CreateRelation(`relation thing(id int)`); err == nil {
		t.Error("CreateRelation accepted an index declaration over a missing attribute")
	}
	if len(db2.Relations()) != 0 {
		t.Errorf("failed creation left relations %v behind", db2.Relations())
	}
	if err := db2.CreateIndex("thing(id)"); err == nil {
		t.Error("half-created relation still exists in the store")
	}
}

// TestIndexedSelectNegativeZero: -0.0 and 0.0 compare equal, so the probe
// path must find a -0.0 row when selecting x = 0.0 exactly like the scan
// path does (regression for the AppendKey -0.0 canonicalization).
func TestIndexedSelectNegativeZero(t *testing.T) {
	db := Open(&Options{Indexes: []string{"r(x)"}})
	db.MustCreateRelation(`relation r(x float, id int)`)
	if err := db.Load("r", [][]any{{math.Copysign(0, -1), 1}, {1.5, 2}}); err != nil {
		t.Fatal(err)
	}
	probed, err := db.Query(`select(r, x = 0.0)`)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := db.Query(`select(r, x + 0.0 = 0.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(probed.Data) != 1 || len(scanned.Data) != 1 {
		t.Fatalf("x = 0.0: probe found %d rows, scan %d, want 1 and 1", len(probed.Data), len(scanned.Data))
	}
}

func TestAutoIndexFromReferentialConstraint(t *testing.T) {
	db := Open(&Options{AutoIndex: true})
	db.MustCreateRelation(`relation parent(id int, name string)`)
	db.MustCreateRelation(`relation child(id int, parent int, qty int)`)
	db.MustDefineConstraint("referential",
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`)
	got := db.Indexes()
	want := []string{"child(parent)", "parent(id)"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("Indexes() = %v, want %v", got, want)
	}
	// A second rule over the same join attributes must not trip on the
	// already-built indexes.
	db.MustDefineConstraint("referential2",
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`)
}

// TestAutoIndexFollowsEnforcementPrograms: AutoIndex builds only what the
// rule's programs probe. The domain check of qty >= 0 reads only the
// transaction's inserts, so it builds no stock(qty) ordered; a clamp repair
// range-selects the out-of-bound rows, so the same constraint with a clamp
// builds it, and the repair range-probes it.
func TestAutoIndexFollowsEnforcementPrograms(t *testing.T) {
	const cond = `forall x (x in stock implies x.qty >= 0)`
	for _, c := range []struct {
		repair string
		want   string
	}{
		{"", ""},
		{" on violation clamp", "stock(qty) ordered"},
	} {
		db := Open(&Options{AutoIndex: true})
		db.MustCreateRelation(`relation stock(id int, qty int)`)
		db.MustDefineConstraint("nonneg", cond+c.repair)
		if got := strings.Join(db.Indexes(), ";"); got != c.want {
			t.Fatalf("%q: Indexes() = %q, want %q", cond+c.repair, got, c.want)
		}
		if c.repair == "" {
			continue
		}
		res, err := db.Submit(`begin insert(stock, values[(1, -5)]); end`)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed || res.RangeProbes == 0 {
			t.Fatalf("clamped insert: committed=%v range probes=%d", res.Committed, res.RangeProbes)
		}
	}
}

// TestSubmitProbesInsteadOfScans: with indexes, a delete-by-key transaction
// and its differential referential check run entirely on probes, and the
// Result reports them.
func TestSubmitProbesInsteadOfScans(t *testing.T) {
	db := Open(&Options{AutoIndex: true})
	db.MustCreateRelation(`relation parent(id int, name string)`)
	db.MustCreateRelation(`relation child(id int, parent int, qty int)`)
	db.MustDefineConstraint("referential",
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`)
	if err := db.Load("parent", [][]any{{1, "a"}, {2, "b"}, {3, "spare"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("child", [][]any{{10, 1, 1}, {11, 2, 1}}); err != nil {
		t.Fatal(err)
	}

	// Deleting the childless parent probes parent(id) for the selection and
	// child(parent) for the enforcement semijoin; it commits.
	res, err := db.Submit(`begin delete(parent, select(parent, id = 3)); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("delete of spare parent aborted: %s", res.Reason)
	}
	if res.Probes == 0 {
		t.Error("indexed submit issued no probes")
	}

	// Deleting a referenced parent must still abort through the probed
	// check — the probe path finds the violating children.
	res, err = db.Submit(`begin delete(parent, select(parent, id = 1)); end`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("delete of referenced parent committed despite referential rule")
	}
	if res.Constraint != "referential" {
		t.Errorf("violated constraint = %q", res.Constraint)
	}

	// Inserting a dangling child aborts through the probed antijoin check,
	// and the probe observed absence correctly.
	res, err = db.Submit(`begin insert(child, values[(12, 99, 1)]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("dangling child committed")
	}

	// A valid child insert probes and commits.
	res, err = db.Submit(`begin insert(child, values[(12, 2, 1)]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.Probes == 0 {
		t.Fatalf("valid child insert: committed=%v probes=%d", res.Committed, res.Probes)
	}
}

// TestIndexedUpdateProbes: an update whose Where is an indexable equality
// probes for its candidate tuples instead of materializing the relation —
// the Result reports probes, the rewrite is correct, and a concurrent-style
// writer of a different key merge-commits instead of conflicting with the
// update's footprint.
func TestIndexedUpdateProbes(t *testing.T) {
	db := Open(&Options{Indexes: []string{"emp(id)"}})
	db.MustCreateRelation(`relation emp(id int, salary int)`)
	if err := db.Load("emp", [][]any{{1, 100}, {2, 200}, {3, 300}}); err != nil {
		t.Fatal(err)
	}

	res, err := db.Submit(`begin update(emp, id = 2, [salary = salary + 5]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("indexed update aborted: %s", res.Reason)
	}
	if res.Probes == 0 {
		t.Error("indexed update issued no probes")
	}
	rows, err := db.Query(`select(emp, id = 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][1] != int64(205) {
		t.Errorf("emp(2) after update = %v, want salary 205", rows.Data)
	}
	if n, _ := db.Count("emp"); n != 3 {
		t.Errorf("emp has %d tuples, want 3", n)
	}

	// An update of an absent key probes, matches nothing, and commits as a
	// no-op.
	res, err = db.Submit(`begin update(emp, id = 99, [salary = 0]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.Probes == 0 {
		t.Fatalf("no-match update: committed=%v probes=%d", res.Committed, res.Probes)
	}
	if n, _ := db.Count("emp"); n != 3 {
		t.Errorf("no-match update changed cardinality to %d", n)
	}
}

// TestOrderedIndexDeclarations: ordered declarations parse, build, list
// with the "ordered" suffix, and deduplicate within their own namespace.
func TestOrderedIndexDeclarations(t *testing.T) {
	db := Open(&Options{Indexes: []string{"stock(qty) ordered", "stock(id)"}})
	db.MustCreateRelation(`relation stock(id int, qty int)`)
	got := db.Indexes()
	want := []string{"stock(id)", "stock(qty) ordered"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("Indexes() = %v, want %v", got, want)
	}
	if err := db.CreateIndex("stock(qty) ordered"); err == nil {
		t.Error("duplicate ordered index accepted")
	}
	// An equality index over the same column is a different namespace.
	if err := db.CreateIndex("stock(qty)"); err != nil {
		t.Errorf("equality index alongside ordered rejected: %v", err)
	}
	if err := db.CreateIndex("stock(nosuch) ordered"); err == nil {
		t.Error("ordered index over unknown attribute accepted")
	}
}

// TestSubmitRangeProbes: a comparison-guarded selection over an ordered
// index answers by bounded range probe — the Result reports range probes,
// the probe agrees with the scan path, and a threshold-guarded alarm still
// aborts a violating transaction through the probed check.
func TestSubmitRangeProbes(t *testing.T) {
	// The unpruned engine: the benign qty = qty + 1 update below is provably
	// safe and would elide the probed check this test pins.
	db := withEngine(Open(&Options{AutoIndex: true, Indexes: []string{"stock(id)"}}), core.Options{UseDifferential: true})
	db.MustCreateRelation(`relation stock(id int, qty int)`)
	// There must always be at least one well-stocked item: an existential
	// constraint whose check selects stock by a threshold comparison. With
	// AutoIndex it builds stock(qty) ordered and the check range-probes.
	db.MustDefineConstraint("reserve", `exists x (x in stock and x.qty >= 1000)`)
	if got := db.Indexes(); strings.Join(got, ";") != "stock(id);stock(qty) ordered" {
		t.Fatalf("Indexes() = %v, want auto-built ordered stock(qty)", got)
	}
	if err := db.Load("stock", [][]any{{1, 5}, {2, 70}, {3, 2000}}); err != nil {
		t.Fatal(err)
	}

	// A query through the facade range-probes and matches the scan result.
	probed, err := db.Query(`select(stock, qty < 100)`)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := db.Query(`select(stock, qty + 0 < 100)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(probed.Data) != 2 || len(scanned.Data) != 2 {
		t.Fatalf("qty < 100: probe %d rows, scan %d, want 2 and 2", len(probed.Data), len(scanned.Data))
	}

	// A benign update commits; its alarm check probed the interval rather
	// than scanning, and the Result reports the range probes.
	res, err := db.Submit(`begin update(stock, id = 1, [qty = qty + 1]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("benign update aborted: %s", res.Reason)
	}
	if res.RangeProbes == 0 {
		t.Error("threshold-guarded check issued no range probes despite the ordered index")
	}
	if res.Probes < res.RangeProbes {
		t.Errorf("Probes = %d < RangeProbes = %d; Probes must aggregate both", res.Probes, res.RangeProbes)
	}

	// Draining the last well-stocked item violates the reserve constraint
	// through the same probed check.
	res, err = db.Submit(`begin update(stock, id = 3, [qty = 0]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("draining the reserve committed despite the existential constraint")
	}
	if res.Constraint != "reserve" {
		t.Errorf("violated constraint = %q", res.Constraint)
	}
}

// TestRangeProbeNaNData: value.Compare answers 0 for NaN against any
// number, so NaN data satisfies inclusive comparisons (x <= c, x >= c) but
// not strict ones — and the probe path must agree with the scan path on
// both, which requires the probe intervals to admit the NaN encodings that
// live outside [-Inf, +Inf] in the numeric band.
func TestRangeProbeNaNData(t *testing.T) {
	db := Open(&Options{Indexes: []string{"r(x) ordered"}})
	db.MustCreateRelation(`relation r(x float, id int)`)
	negNaN := math.Float64frombits(0xFFF8000000000000)
	if err := db.Load("r", [][]any{{math.NaN(), 1}, {negNaN, 2}, {2.0, 3}, {7.0, 4}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pred string
		want int
	}{
		{"x <= 5.0", 3}, // both NaNs and 2.0
		{"x < 5.0", 1},  // 2.0 only
		{"x >= 5.0", 3}, // both NaNs and 7.0
		{"x > 5.0", 1},  // 7.0 only
	} {
		probed, err := db.Query(fmt.Sprintf(`select(r, %s)`, c.pred))
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := db.Query(fmt.Sprintf(`select(r, x + 0.0 %s)`, c.pred[1:]))
		if err != nil {
			t.Fatal(err)
		}
		if len(probed.Data) != c.want || len(scanned.Data) != c.want {
			t.Errorf("%s: probe %d rows, scan %d, want %d", c.pred, len(probed.Data), len(scanned.Data), c.want)
		}
	}
}

const rangeSentinel = 1_000_000

// newRangeAlarmDB builds the threshold-guarded alarm workload: nShards
// stock relations, each holding lowRows low-quantity tuples (the update
// targets) plus one high-quantity sentinel, guarded by an existential
// reserve constraint ("some item must stay above the threshold") whose
// enforcement check selects stock by comparison. With indexed=true the
// update predicates probe declared stock(id) equality indexes and the checks
// range-probe auto-built stock(qty) ordered indexes; with indexed=false the
// same transactions scan. The database runs the unpruned engine: pruning
// would elide the probed checks of the monotone qty = qty + 1 updates
// entirely, and the range-probe machinery is what the callers pin.
func newRangeAlarmDB(t testing.TB, nShards, lowRows int, indexed bool) *DB {
	t.Helper()
	opts := &Options{AutoIndex: indexed, MaxCommitRetries: 1_000_000}
	if indexed {
		for s := 0; s < nShards; s++ {
			opts.Indexes = append(opts.Indexes, fmt.Sprintf("stock%d(id)", s))
		}
	}
	db := withEngine(Open(opts), core.Options{UseDifferential: true})
	rows := make([][]any, 0, lowRows+1)
	for i := 0; i < lowRows; i++ {
		rows = append(rows, []any{i, i % 100})
	}
	rows = append(rows, []any{rangeSentinel, rangeSentinel})
	for s := 0; s < nShards; s++ {
		db.MustCreateRelation(fmt.Sprintf(`relation stock%d(id int, qty int)`, s))
		db.MustDefineConstraint(fmt.Sprintf("reserve%d", s),
			fmt.Sprintf(`exists x (x in stock%d and x.qty >= 100000)`, s))
		if err := db.Load(fmt.Sprintf("stock%d", s), rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestRangeProbeCrossShardStress exercises concurrent range probes against
// commits to several relations: every transaction updates a distinct low-quantity
// tuple of one stock relation (hash probe on id), and its reserve check
// range-probes the qty interval [threshold, ∞), which only the untouched
// sentinel inhabits. All write footprints project outside every probed
// interval, so every transaction must commit without a single retry while
// the ordered indexes stay consistent. Run with -race.
func TestRangeProbeCrossShardStress(t *testing.T) {
	const (
		nShards   = 4
		lowRows   = 400
		perWorker = 60
	)
	db := newRangeAlarmDB(t, nShards, lowRows, true)
	var wg sync.WaitGroup
	errs := make(chan error, 2*nShards*perWorker)
	// Two workers per stock relation, updating disjoint id halves: their
	// commits overlap on the relation and must merge rather than retry.
	for w := 0; w < 2*nShards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := (w/nShards)*perWorker + i // distinct ids within the relation
				src := fmt.Sprintf(`begin update(stock%d, id = %d, [qty = qty + 1]); end`, w%nShards, id)
				res, err := db.Submit(src)
				if err != nil {
					errs <- err
					return
				}
				if !res.Committed {
					errs <- fmt.Errorf("update aborted: %s", res.Reason)
					return
				}
				if res.Retries != 0 {
					errs <- fmt.Errorf("disjoint-interval update retried %d times (interval read too wide)", res.Retries)
					return
				}
				if res.RangeProbes == 0 {
					errs <- fmt.Errorf("update ran without range probes despite ordered indexes")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := db.Metrics().Counters
	if n := stats["repro_storage_conflicts_total"]; n != 0 {
		t.Errorf("conflicts = %d, want 0", n)
	}
	for s := 0; s < nShards; s++ {
		if n, err := db.Count(fmt.Sprintf("stock%d", s)); err != nil || n != lowRows+1 {
			t.Fatalf("stock%d count = %d (err %v), want %d", s, n, err, lowRows+1)
		}
		// The probe path must agree with an unindexable scan on the final
		// state, above and below the threshold.
		for _, pred := range []string{"qty >= 100000", "qty < 50"} {
			probed, err := db.Query(fmt.Sprintf(`select(stock%d, %s)`, s, pred))
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := db.Query(fmt.Sprintf(`select(stock%d, qty + 0 >= 0 and %s)`, s, pred))
			if err != nil {
				t.Fatal(err)
			}
			if len(probed.Data) != len(scanned.Data) {
				t.Fatalf("stock%d %s: probe answered %d rows, scan %d", s, pred, len(probed.Data), len(scanned.Data))
			}
		}
	}
	t.Logf("merged commits: %d of %d", stats["repro_storage_merged_commits_total"], stats["repro_storage_commits_total"])
}

// newAlarmDB builds the selective-alarm workload: nShards child relations
// (each with its own referential rule onto one shared parent relation),
// parents 0..nParents-1 referenced by preloaded children, and nSpares
// childless spare parents with ids spareBase+i whose deletion is
// integrity-clean. With indexed=true the enforcement joins auto-index both
// directions; with indexed=false the same deletions scan, which is the
// benchmark's before/after contrast.
const spareBase = 1_000_000

func newAlarmDB(t testing.TB, nShards, nParents, childRows, nSpares int, indexed bool) *DB {
	t.Helper()
	db := Open(&Options{AutoIndex: indexed, MaxCommitRetries: 1_000_000})
	db.MustCreateRelation(`relation parent(id int, name string)`)
	rows := make([][]any, 0, nParents+nSpares)
	for i := 0; i < nParents; i++ {
		rows = append(rows, []any{i, fmt.Sprintf("p-%d", i)})
	}
	for i := 0; i < nSpares; i++ {
		rows = append(rows, []any{spareBase + i, "spare"})
	}
	crows := make([][]any, childRows)
	for i := range crows {
		crows[i] = []any{i, i % nParents, 1}
	}
	for s := 0; s < nShards; s++ {
		db.MustCreateRelation(fmt.Sprintf(`relation child%d(id int, parent int, qty int)`, s))
		db.MustDefineConstraint(fmt.Sprintf("ref%d", s),
			fmt.Sprintf(`forall x (x in child%d implies exists y (y in parent and x.parent = y.id))`, s))
		if err := db.Load(fmt.Sprintf("child%d", s), crows); err != nil {
			t.Fatal(err)
		}
	}
	// Load parents after the rules so the auto-built indexes are rebuilt by
	// the bulk load too (exercising that path).
	if err := db.Load("parent", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDisjointAlarmProbesNoRetry: transactions deleting distinct spare
// parents probe disjoint keys of parent and of every child relation; under
// concurrent submission none of them may ever lose validation, and
// overlapping pairs merge-commit on the shared parent relation. Run with
// -race.
func TestDisjointAlarmProbesNoRetry(t *testing.T) {
	const (
		nShards = 4
		txns    = 200
		workers = 8
	)
	db := newAlarmDB(t, nShards, 50, 2000, txns, true)
	srcs := make([]string, txns)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`begin delete(parent, select(parent, id = %d)); end`, spareBase+i)
	}
	for _, s := range submitAll(db, srcs, workers) {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if !s.res.Committed {
			t.Fatalf("disjoint delete aborted: %s", s.res.Reason)
		}
		if s.res.Retries != 0 {
			t.Fatalf("disjoint probed delete retried %d times (conflict footprint too wide)", s.res.Retries)
		}
		if s.res.Probes == 0 {
			t.Fatal("delete ran without probes despite indexes")
		}
	}
	stats := db.Metrics().Counters
	if n := stats["repro_storage_conflicts_total"]; n != 0 {
		t.Errorf("conflicts = %d, want 0", n)
	}
	if n, err := db.Count("parent"); err != nil || n != 50 {
		t.Errorf("parent count = %d (err %v), want 50", n, err)
	}
	t.Logf("merged commits: %d of %d", stats["repro_storage_merged_commits_total"], stats["repro_storage_commits_total"])
}

// TestIndexedProbeCrossShardStress exercises concurrent indexed probes
// against commits to several relations: half the goroutines insert valid
// children into their own child relation (probing parent on alive keys),
// half delete childless spare parents (probing every child relation on the
// spare key). All footprints are key-disjoint, so every transaction must
// commit without a single retry while the indexes stay consistent. Run with
// -race.
func TestIndexedProbeCrossShardStress(t *testing.T) {
	const (
		nShards   = 4
		nParents  = 50
		perWorker = 60
	)
	db := newAlarmDB(t, nShards, nParents, 500, nShards*perWorker, true)
	var wg sync.WaitGroup
	errs := make(chan error, 2*nShards*perWorker)
	for w := 0; w < nShards; w++ {
		wg.Add(2)
		go func(w int) { // child inserter for shard w
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := 10_000 + w*perWorker + i
				src := fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`, w, id, id%nParents)
				res, err := db.Submit(src)
				if err != nil {
					errs <- err
					return
				}
				if !res.Committed {
					errs <- fmt.Errorf("insert aborted: %s", res.Reason)
					return
				}
				if res.Retries != 0 {
					errs <- fmt.Errorf("disjoint insert retried %d times", res.Retries)
					return
				}
			}
		}(w)
		go func(w int) { // spare-parent deleter
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := fmt.Sprintf(`begin delete(parent, select(parent, id = %d)); end`,
					spareBase+w*perWorker+i)
				res, err := db.Submit(src)
				if err != nil {
					errs <- err
					return
				}
				if !res.Committed {
					errs <- fmt.Errorf("spare delete aborted: %s", res.Reason)
					return
				}
				if res.Retries != 0 {
					errs <- fmt.Errorf("disjoint delete retried %d times", res.Retries)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final-state checks: counts, no dangling references, and every index
	// answers probes consistently with a scan.
	if n, err := db.Count("parent"); err != nil || n != nParents {
		t.Fatalf("parent count = %d (err %v), want %d", n, err, nParents)
	}
	for s := 0; s < nShards; s++ {
		if n, err := db.Count(fmt.Sprintf("child%d", s)); err != nil || n != 500+perWorker {
			t.Fatalf("child%d count = %d (err %v), want %d", s, n, err, 500+perWorker)
		}
		rows, err := db.Query(fmt.Sprintf(`diff(project(child%d, parent), project(parent, id))`, s))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 0 {
			t.Fatalf("child%d has %d dangling parents", s, len(rows.Data))
		}
		// Probe path (select with equality) versus an unindexable scan.
		probed, err := db.Query(fmt.Sprintf(`select(child%d, parent = 0)`, s))
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := db.Query(fmt.Sprintf(`select(child%d, parent + 0 = 0)`, s))
		if err != nil {
			t.Fatal(err)
		}
		if len(probed.Data) != len(scanned.Data) {
			t.Fatalf("child%d: probe answered %d rows, scan %d", s, len(probed.Data), len(scanned.Data))
		}
	}
}
