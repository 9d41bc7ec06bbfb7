package repro

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/lang"
	"repro/internal/translate"
	"repro/internal/txn"
)

// enginePair is the default (pruned) engine and the unpruned differential
// reference engine, fed identical input.
type enginePair struct {
	pruned   *DB
	unpruned *DB
	rels     []string // relation names, for state dumps
}

func newEnginePair(t testing.TB, sc *difftest.Scenario, prunedDir, unprunedDir string) *enginePair {
	t.Helper()
	open := func(dir string) *DB {
		if dir == "" {
			return Open(nil)
		}
		return Open(&Options{Dir: dir, Sync: SyncOff})
	}
	p := &enginePair{
		pruned:   open(prunedDir),
		unpruned: withEngine(open(unprunedDir), core.Options{UseDifferential: true}),
	}
	p.define(t, sc)
	return p
}

// define creates relations and constraints on both engines. A constraint
// the compiler rejects (e.g. a repair clause on an incompatible class) must
// be rejected by both engines identically and is then skipped.
func (p *enginePair) define(t testing.TB, sc *difftest.Scenario) {
	t.Helper()
	for _, ddl := range sc.Relations {
		if err := p.pruned.EnsureRelation(ddl); err != nil {
			t.Fatalf("pruned EnsureRelation(%q): %v", ddl, err)
		}
		if err := p.unpruned.EnsureRelation(ddl); err != nil {
			t.Fatalf("unpruned EnsureRelation(%q): %v", ddl, err)
		}
		name := strings.TrimSpace(strings.TrimPrefix(ddl, "relation"))
		name = name[:strings.Index(name, "(")]
		p.rels = append(p.rels, strings.TrimSpace(name))
	}
	p.rels = uniqueStrings(p.rels)
	for _, c := range sc.Constraints {
		err1 := p.pruned.DefineConstraint(c.Name, c.Cond)
		err2 := p.unpruned.DefineConstraint(c.Name, c.Cond)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("constraint %q accepted by one engine only: pruned=%v unpruned=%v", c.Cond, err1, err2)
		}
		if err1 != nil {
			continue
		}
		// Repair programs can close a triggering cycle (Definition 6.1) with
		// a previously defined rule; cyclic rule sets are rejected user
		// error, so drop the constraint that closed the cycle on both sides.
		if p.pruned.ValidateRules() != nil {
			if err := p.pruned.DropRule(c.Name); err != nil {
				t.Fatal(err)
			}
			if err := p.unpruned.DropRule(c.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// submitBoth runs one transaction through both engines and asserts the
// outcomes agree: same commit/abort decision, same violated constraint, and
// identical final state of every relation. Returns whether it committed.
func (p *enginePair) submitBoth(t testing.TB, src string) bool {
	t.Helper()
	rp, errP := p.pruned.Submit(src)
	ru, errU := p.unpruned.Submit(src)
	if (errP == nil) != (errU == nil) {
		t.Fatalf("divergent submit error for %q: pruned=%v unpruned=%v", src, errP, errU)
	}
	if errP != nil {
		return false
	}
	if rp.Committed != ru.Committed {
		t.Fatalf("divergent outcome for %q: pruned committed=%v, unpruned committed=%v (pruned reason %q, unpruned reason %q)",
			src, rp.Committed, ru.Committed, rp.Reason, ru.Reason)
	}
	if rp.Constraint != ru.Constraint {
		t.Fatalf("divergent constraint for %q: pruned %q, unpruned %q", src, rp.Constraint, ru.Constraint)
	}
	if ru.Report.ChecksElided != 0 {
		t.Fatalf("unpruned engine elided %d checks for %q", ru.Report.ChecksElided, src)
	}
	p.compareStates(t, src)
	return rp.Committed
}

// compareStates asserts both engines hold identical relation contents.
func (p *enginePair) compareStates(t testing.TB, context string) {
	t.Helper()
	for _, rel := range p.rels {
		a := dumpRelation(t, p.pruned, rel)
		b := dumpRelation(t, p.unpruned, rel)
		if a != b {
			t.Fatalf("state divergence in %s after %q:\npruned:\n%s\nunpruned:\n%s", rel, context, a, b)
		}
	}
}

// dumpRelation renders a relation's rows in canonical sorted order.
func dumpRelation(t testing.TB, db *DB, rel string) string {
	t.Helper()
	rows, err := db.Query(rel)
	if err != nil {
		t.Fatalf("Query(%s): %v", rel, err)
	}
	lines := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		lines = append(lines, fmt.Sprint(r...))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func uniqueStrings(xs []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// TestDifferentialPrunedVsUnpruned is the differential property test: many
// randomized (schema, constraint set, transaction) scenarios run through
// pruned and unpruned enforcement side by side across multiple commit
// generations, asserting identical commit/alarm decisions and identical
// final states. It also requires the pruning to actually fire somewhere —
// a harness that never elides proves nothing.
func TestDifferentialPrunedVsUnpruned(t *testing.T) {
	const (
		scenarios = 48
		txnsPer   = 10
		minPairs  = 500
	)
	pairs, elided := 0, uint64(0)
	for s := 0; s < scenarios; s++ {
		rng := rand.New(rand.NewSource(0xd1ff + int64(s)))
		sc := difftest.Generate(rng, txnsPer)
		p := newEnginePair(t, sc, "", "")
		nc := len(activeConstraints(p.pruned))
		for _, src := range sc.Seed {
			p.submitBoth(t, src)
			pairs += nc
		}
		// Pruning is only sound against a consistent committed base state
		// (the paper's standing assumption for differential enforcement);
		// the generator guarantees the surviving seed establishes one.
		assertStateConsistent(t, p.pruned, "pruned base")
		assertStateConsistent(t, p.unpruned, "unpruned base")
		for _, src := range sc.Txns {
			p.submitBoth(t, src)
			pairs += nc
		}
		elided += p.pruned.Metrics().Counters["repro_txn_checks_elided_total"]
	}
	if pairs < minPairs {
		t.Fatalf("harness exercised %d (constraint, txn) pairs, want >= %d", pairs, minPairs)
	}
	if elided == 0 {
		t.Fatal("pruned engine elided no checks across the whole harness; the analyzer never fired")
	}
	t.Logf("zero divergence over %d (constraint, txn) pairs (%d checks elided)", pairs, elided)
}

// activeConstraints lists the rules actually registered (constraint
// declarations the compiler rejected are skipped by the harness).
func activeConstraints(db *DB) []string {
	var out []string
	for _, ip := range db.cat.Programs() {
		out = append(out, ip.RuleName)
	}
	return out
}

// TestDifferentialPrunedVsUnprunedDurable covers commit generations across
// a process restart: half the workload, a close-and-reopen of both engines
// (constraints redefined, as rule catalogs are not persisted), then the
// second half — states must stay identical throughout.
func TestDifferentialPrunedVsUnprunedDurable(t *testing.T) {
	for s := 0; s < 4; s++ {
		rng := rand.New(rand.NewSource(0xd04a + int64(s)))
		sc := difftest.Generate(rng, 8)
		dirP, dirU := t.TempDir(), t.TempDir()
		p := newEnginePair(t, sc, dirP, dirU)
		for _, src := range sc.Seed {
			p.submitBoth(t, src)
		}
		half := len(sc.Txns) / 2
		for _, src := range sc.Txns[:half] {
			p.submitBoth(t, src)
		}
		if err := p.pruned.Close(); err != nil {
			t.Fatal(err)
		}
		if err := p.unpruned.Close(); err != nil {
			t.Fatal(err)
		}
		p = newEnginePair(t, sc, dirP, dirU)
		p.compareStates(t, "reopen")
		for _, src := range sc.Txns[half:] {
			p.submitBoth(t, src)
		}
	}
}

// TestDifferentialConcurrentStress runs generated workloads through both
// engines with concurrent writers. Interleavings differ between the two
// engines, so states cannot be compared pairwise; the invariant under
// concurrency is that every engine's committed final state satisfies every
// constraint under a full-state recheck. Run with -race.
func TestDifferentialConcurrentStress(t *testing.T) {
	const workers = 8
	rng := rand.New(rand.NewSource(0x57e55))
	sc := difftest.Generate(rng, workers*24)
	p := newEnginePair(t, sc, "", "")
	for _, src := range sc.Seed {
		p.submitBoth(t, src)
	}
	for _, db := range []*DB{p.pruned, p.unpruned} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(sc.Txns); i += workers {
					if _, err := db.Submit(sc.Txns[i]); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	assertStateConsistent(t, p.pruned, "pruned")
	assertStateConsistent(t, p.unpruned, "unpruned")
}

// assertStateConsistent runs every rule's full-state check program against
// the engine's current state — the brute-force ground truth.
func assertStateConsistent(t testing.TB, db *DB, label string) {
	t.Helper()
	for _, ip := range db.cat.Programs() {
		prog := algebra.CloneProgram(ip.Full)
		res, err := db.exec.Exec(txn.Bracket(prog))
		if err != nil {
			t.Fatalf("%s: full check of %s: %v", label, ip.RuleName, err)
		}
		if res.AbortReason != nil {
			t.Fatalf("%s: committed state violates %s: %v", label, ip.RuleName, res.AbortReason)
		}
	}
}

// FuzzSafetyVerdict fuzzes the static safety analyzer against brute-force
// evaluation: whenever the analyzer declares every part of a rule safe for
// a generated transaction, executing that transaction with enforcement
// disabled must leave the rule's full-state check passing. The fuzz input
// seeds the scenario generator.
func FuzzSafetyVerdict(f *testing.F) {
	// Paper-flavored seeds: the beer/brewery referential example's shape
	// (section 4) maps onto ord→item; threshold domains onto qty bounds.
	f.Add([]byte("beer-brewery-referential"))
	f.Add([]byte("alcohol >= 0"))
	f.Add([]byte("qty = qty + 1 monotone away from bound"))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		sc := difftest.Generate(rng, 1)

		db := Open(nil)
		for _, ddl := range sc.Relations {
			if err := db.EnsureRelation(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range sc.Constraints {
			if err := db.DefineConstraint(c.Name, c.Cond); err != nil {
				continue // rejected repairs drop out
			}
			if db.ValidateRules() != nil {
				// Same policy as the differential harness: a repair that
				// closes a triggering cycle is rejected user error.
				if err := db.DropRule(c.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, src := range sc.Seed {
			if _, err := db.Submit(src); err != nil {
				t.Fatal(err)
			}
		}

		src := sc.Txns[0]
		prog, err := lang.ParseTransaction(src, db.sch)
		if err != nil {
			t.Fatal(err)
		}
		stmts := []algebra.Stmt(prog)

		var safeRules []string
		for _, ip := range db.cat.Programs() {
			if len(ip.Plans) == 0 {
				continue
			}
			safe := true
			for _, pl := range ip.Plans {
				if !translate.AnalyzeSafety(pl.Part, pl.Terms, db.sch, stmts).Safe() {
					safe = false
					break
				}
			}
			if safe {
				safeRules = append(safeRules, ip.RuleName)
			}
		}
		if len(safeRules) == 0 {
			return // nothing elidable: nothing to verify
		}

		res, err := db.exec.Exec(txn.Bracket(prog))
		if err != nil || !res.Committed {
			return // statement-level error: no state change to verify
		}
		for _, name := range safeRules {
			ip, _ := db.cat.Program(name)
			check := algebra.CloneProgram(ip.Full)
			cres, err := db.exec.Exec(txn.Bracket(check))
			if err != nil {
				t.Fatalf("full check of %s: %v", name, err)
			}
			if cres.AbortReason != nil {
				t.Fatalf("analyzer declared %s safe for %q, but brute-force evaluation found a violation: %v",
					name, src, cres.AbortReason)
			}
		}
	})
}
