// Facade-level durability tests: Options.Dir end to end — commit, crash
// (abandon without Close), reopen, verify; plus rules, indexes and
// EnsureRelation across reopen. The storage-level crash-point property test
// lives in internal/storage.
package repro

import (
	"fmt"
	"testing"
)

func durableOpen(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.Dir = dir
	db, err := OpenChecked(&opts)
	if err != nil {
		t.Fatalf("OpenChecked(%s): %v", dir, err)
	}
	return db
}

func setupInventory(t *testing.T, db *DB) {
	t.Helper()
	if err := db.EnsureRelation(`relation stock(item string, qty int)`); err != nil {
		t.Fatalf("EnsureRelation stock: %v", err)
	}
	if err := db.EnsureRelation(`relation orders(item string, n int)`); err != nil {
		t.Fatalf("EnsureRelation orders: %v", err)
	}
}

func mustSubmit(t *testing.T, db *DB, src string) {
	t.Helper()
	res, err := db.Submit(src)
	if err != nil {
		t.Fatalf("Submit(%s): %v", src, err)
	}
	if !res.Committed {
		t.Fatalf("Submit(%s): aborted: %s", src, res.Reason)
	}
}

func queryInts(t *testing.T, db *DB, expr string) []int64 {
	t.Helper()
	rows, err := db.Query(expr)
	if err != nil {
		t.Fatalf("Query(%s): %v", expr, err)
	}
	var out []int64
	for _, r := range rows.Data {
		out = append(out, r[0].(int64))
	}
	return out
}

// TestDurableReopen commits through the facade, closes, reopens and expects
// the full state — contents, rules re-defined by setup code, and committed
// transactions from the second incarnation — to line up.
func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()

	db := durableOpen(t, dir, Options{})
	setupInventory(t, db)
	db.MustDefineConstraint("nonneg", `forall x (x in stock implies x.qty >= 0)`)
	mustSubmit(t, db, `begin insert(stock, values[("bolt", 40), ("nut", 15)]); end`)
	mustSubmit(t, db, `begin update(stock, item = "nut", [qty = qty - 5]); end`)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = durableOpen(t, dir, Options{})
	setupInventory(t, db) // must be a no-op on the recovered relations
	db.MustDefineConstraint("nonneg", `forall x (x in stock implies x.qty >= 0)`)
	if got := queryInts(t, db, `project(select(stock, item = "nut"), qty)`); len(got) != 1 || got[0] != 10 {
		t.Fatalf("recovered nut qty = %v, want [10]", got)
	}
	if n, _ := db.Count("stock"); n != 2 {
		t.Fatalf("recovered stock count = %d, want 2", n)
	}
	// The recovered database still enforces: overdraw must abort.
	res, err := db.Submit(`begin update(stock, item = "nut", [qty = qty - 50]); end`)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Committed {
		t.Fatalf("overdraw committed on recovered database")
	}
	// And still accepts new commits that survive another reopen.
	mustSubmit(t, db, `begin insert(stock, values[("washer", 7)]); end`)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = durableOpen(t, dir, Options{})
	defer db.Close()
	if n, _ := db.Count("stock"); n != 3 {
		t.Fatalf("stock count after second reopen = %d, want 3", n)
	}
}

// TestDurableCrashReopen abandons the database without Close (the facade
// analogue of a process crash: under SyncAlways every acknowledged commit is
// already fsynced) and reopens the directory.
func TestDurableCrashReopen(t *testing.T) {
	dir := t.TempDir()

	db := durableOpen(t, dir, Options{Sync: SyncAlways})
	setupInventory(t, db)
	for i := 0; i < 20; i++ {
		mustSubmit(t, db, fmt.Sprintf(`begin insert(stock, values[("item%d", %d)]); end`, i, i))
	}
	// No Close: the WAL tail is whatever SyncAlways already made durable,
	// which is every acknowledged commit.

	db2 := durableOpen(t, dir, Options{})
	defer db2.Close()
	if n, _ := db2.Count("stock"); n != 20 {
		t.Fatalf("recovered stock count = %d, want 20", n)
	}
}

// TestDurableIndexesReopen reopens with Options.Indexes covering
// both recovered relations (applied at open, duplicates skipped) and ones
// created later.
func TestDurableIndexesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Indexes: []string{"stock(item)", "stock(qty) ordered"}}

	db := durableOpen(t, dir, opts)
	setupInventory(t, db)
	mustSubmit(t, db, `begin insert(stock, values[("bolt", 40)]); end`)
	want := fmt.Sprintf("%v", db.Indexes())
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Index definitions are themselves durable; reopening with the same
	// declarations must not double-define them.
	db = durableOpen(t, dir, opts)
	if got := fmt.Sprintf("%v", db.Indexes()); got != want {
		t.Fatalf("recovered indexes = %s, want %s", got, want)
	}
	// And a probe against the recovered index still answers correctly.
	if got := queryInts(t, db, `project(select(stock, item = "bolt"), qty)`); len(got) != 1 || got[0] != 40 {
		t.Fatalf("probe on recovered index = %v, want [40]", got)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEnsureRelationMismatch verifies the idempotent-creation contract.
func TestEnsureRelationMismatch(t *testing.T) {
	db := Open(nil)
	if err := db.EnsureRelation(`relation r(a int)`); err != nil {
		t.Fatalf("EnsureRelation: %v", err)
	}
	if err := db.EnsureRelation(`relation r(a int)`); err != nil {
		t.Fatalf("EnsureRelation (repeat): %v", err)
	}
	if err := db.EnsureRelation(`relation r(a string)`); err == nil {
		t.Fatalf("EnsureRelation with different attrs: want error, got nil")
	}
	if db.Durable() {
		t.Fatalf("in-memory database reports Durable")
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatalf("Checkpoint on in-memory database: want error, got nil")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close on in-memory database: %v", err)
	}
}

// TestDurableSyncOptions exercises every sync policy through the facade,
// with a clean Close (which makes even SyncOff fully durable).
func TestDurableSyncOptions(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncAlways, SyncBatched, SyncOff} {
		dir := t.TempDir()
		db := durableOpen(t, dir, Options{Sync: sync, CheckpointBytes: -1})
		setupInventory(t, db)
		mustSubmit(t, db, `begin insert(stock, values[("bolt", 1)]); end`)
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		db = durableOpen(t, dir, Options{})
		if n, _ := db.Count("stock"); n != 1 {
			t.Fatalf("sync=%d: recovered count = %d, want 1", sync, n)
		}
		db.Close()
	}
	if err := (&Options{Sync: SyncBatched}).Validate(); err == nil {
		t.Fatalf("Sync without Dir: want validation error")
	}
}

// TestFailedCreateRelationLeavesNoSchemaEntry: when the store refuses the
// relation (here because the WAL is closed), the schema must not keep it —
// otherwise Relations lists a relation Count does not know, and a retry
// reports a duplicate instead of the real failure.
func TestFailedCreateRelationLeavesNoSchemaEntry(t *testing.T) {
	db := durableOpen(t, t.TempDir(), Options{})
	db.MustCreateRelation(`relation a(x int)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	first := db.CreateRelation(`relation b(x int)`)
	if first == nil {
		t.Fatal("CreateRelation succeeded on a closed database")
	}
	if got := fmt.Sprint(db.Relations()); got != "[a]" {
		t.Errorf("Relations() = %s after the failed creation, want [a]", got)
	}
	if second := db.CreateRelation(`relation b(x int)`); second == nil || second.Error() != first.Error() {
		t.Errorf("retry reports %v, want the first failure again (%v)", second, first)
	}
}

// TestFailedAutoIndexLeavesNoRule: when a rule compiles but one of its
// automatic indexes cannot be defined, the rule must leave the catalog
// again, for both definition calls.
func TestFailedAutoIndexLeavesNoRule(t *testing.T) {
	db := durableOpen(t, t.TempDir(), Options{AutoIndex: true})
	db.MustCreateRelation(`relation parent(id int)`)
	db.MustCreateRelation(`relation child(id int, parent int)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const cond = `forall x (x in child implies exists y (y in parent and x.parent = y.id))`
	for name, define := range map[string]func() error{
		"constraint": func() error { return db.DefineConstraint("ref", cond) },
		"rule":       func() error { return db.DefineRule("ref", "if not "+cond+" then abort") },
	} {
		first := define()
		if first == nil {
			t.Fatalf("%s: defined on a closed database although its indexes cannot be logged", name)
		}
		if got := db.RuleNames(); len(got) != 0 {
			t.Errorf("%s: RuleNames() = %v after the failed definition, want none", name, got)
		}
		if second := define(); second == nil || second.Error() != first.Error() {
			t.Errorf("%s: retry reports %v, want the first failure again (%v)", name, second, first)
		}
	}
}
