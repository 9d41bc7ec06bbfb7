// Package repro is a main-memory relational database engine with a
// declarative integrity control subsystem based on transaction modification,
// reproducing Grefen's VLDB 1993 design (PRISMA/DB): every submitted
// transaction is rewritten — extended with alarm checks and compensating
// statements derived from declaratively specified integrity rules — so that
// its execution cannot violate the integrity of the database.
//
// The core workflow:
//
//	db := repro.Open(nil)
//	db.CreateRelation(`relation beer(name string, type string, brewery string, alcohol int)`)
//	db.CreateRelation(`relation brewery(name string, city string, country string)`)
//	db.DefineConstraint("R1", `forall x (x in beer implies x.alcohol >= 0)`)
//	db.DefineRule("R2", `
//	    if not forall x (x in beer implies
//	        exists y (y in brewery and x.brewery = y.name))
//	    then
//	        temp := diff(project(beer, brewery), project(brewery, name));
//	        insert(brewery, project(temp, #1 as name, null as city, null as country))`)
//	res, err := db.Submit(`begin
//	    insert(beer, values[("exportgold", "stout", "guineken", 6)]);
//	end`)
//
// Constraints are written in CL, a tuple relational calculus with aggregates
// (Section 4.1 of the paper); rules in RL, "WHEN triggers IF NOT condition
// THEN action" (Definition 4.7). Trigger sets are generated from conditions
// automatically (Algorithm 5.7) unless specified. Rules compile at
// definition time into integrity programs (Definition 6.3); transaction
// modification then only selects and concatenates (Algorithm 6.2).
package repro

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trigger"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/views"
	"repro/internal/wal"
)

// SyncPolicy selects how eagerly a durable database (Options.Dir set) fsyncs
// its write-ahead log. The zero value is SyncAlways.
type SyncPolicy int

const (
	// SyncAlways fsyncs every commit epoch before acknowledging it — one
	// group fsync covers the whole batch — so an acknowledged commit
	// survives both process and machine crashes.
	SyncAlways SyncPolicy = iota
	// SyncBatched acknowledges once the epoch's log records reach the
	// operating system and fsyncs on a short background interval:
	// acknowledged commits survive a process crash, and a machine crash
	// loses at most the last interval's worth.
	SyncBatched
	// SyncOff never fsyncs during operation (Close still flushes and
	// syncs): fastest, survives clean shutdown and process crashes only.
	SyncOff
)

func (p SyncPolicy) wal() wal.SyncPolicy {
	switch p {
	case SyncBatched:
		return wal.SyncBatched
	case SyncOff:
		return wal.SyncOff
	default:
		return wal.SyncAlways
	}
}

// Options configure a database. Enforcement has no options (see Open).
type Options struct {
	// UseDifferential is ignored: enforcement is always differential. The
	// field remains only because benchmarks/txbench still sets it, and goes
	// when that package is next changed.
	UseDifferential bool
	// MaxCommitRetries bounds how often a transaction losing optimistic
	// commit validation is re-executed against a fresh snapshot; 0 means
	// the default (txn.DefaultMaxRetries).
	MaxCommitRetries int
	// Indexes declares secondary indexes as "relation(attr, ...)" strings,
	// as in "stock(item, qty)". The attribute order is the index's sort
	// order. An index answers an equality on any leading prefix of its
	// attributes (selections, updates and enforcement joins) with a key
	// probe, and a comparison on the next attribute (qty < threshold,
	// between-style conjunctions, and the negated guards of enforcement
	// programs) with a bounded range probe, instead of a scan. Probed
	// transactions record point or interval reads instead of whole-relation
	// reads. A trailing "ordered", as in "stock(qty) ordered", still parses
	// and changes nothing. Each declaration is applied when the named
	// relation is created, so the list may be set before any CreateRelation
	// call; indexes can also be added later with DB.CreateIndex.
	Indexes []string
	// AutoIndex derives secondary indexes automatically at rule definition
	// time from the programs the engine runs for the rule, its differential
	// checks and its repair, and builds exactly the indexes they probe:
	// indexes on the equality-join attributes of referential and pair
	// checks — both join directions, so the insertion-side check probes the
	// referenced relation and the deletion-side check probes the
	// referencing one — and on the attributes that existential checks and
	// clamp or cascade-delete repairs compare against constants, so they
	// range-probe instead of scanning. A domain
	// check reads only the transaction's own inserts and builds nothing;
	// declare range lookups on a domain-constrained column in Indexes.
	// It stays opt-in because indexes cost setup time and memory a workload
	// may not earn back: the benchmark's point_indexed workload sets it,
	// scan_unindexed does not.
	AutoIndex bool
	// Dir, when non-empty, makes the database durable: every committed
	// group-commit epoch is appended to a write-ahead log under Dir and made
	// crash-safe per Sync, background checkpoints bound the log replayed at
	// the next open, and Open recovers the directory's prior state — schema,
	// relation contents, index definitions — before anything else. On a
	// recovered database CreateRelation fails for relations that already
	// exist; use EnsureRelation for setup code that must run on both fresh
	// and reopened directories. See docs/RECOVERY.md for the guarantees.
	Dir string
	// Sync is the write-ahead-log sync policy of a durable database; the
	// zero value is SyncAlways. Ignored when Dir is empty.
	Sync SyncPolicy
	// CheckpointBytes triggers an automatic background checkpoint once that
	// many log bytes accumulate since the last one; 0 means the engine
	// default (8 MiB), negative disables automatic checkpoints (DB.Checkpoint
	// still works). Ignored when Dir is empty.
	CheckpointBytes int64
	// CacheBytes, when positive, pages the durable database instead of
	// keeping it memory-resident: Open materializes relations as shallow
	// stubs over the newest checkpoint chain and trie nodes fault in on
	// demand through a shared node cache bounded near this many bytes (CLOCK
	// eviction, pinned roots), so relations can outgrow RAM. Commits are
	// unaffected — path-copied writes stay in memory until checkpointed.
	// 0 keeps every relation fully resident. Requires Dir.
	CacheBytes int64
	// Metrics, when non-nil, is the registry every engine metric registers
	// on — transaction execution, the commit pipeline, the WAL, index
	// maintenance and checkpoint/recovery (see docs/OBSERVABILITY.md for the
	// catalog). Sharing one registry between databases is well-defined:
	// their counters sum. When nil the database builds a private registry,
	// readable through DB.Metrics and DB.WriteProm all the same.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives transaction- and epoch-lifecycle
	// events (obs.Event) synchronously from the engine. Tracers must return
	// promptly and must not re-enter the database: most events fire inside
	// the commit pipeline, several under the commit lock.
	Tracer obs.Tracer
}

// Validate reports the first invalid option: a negative retry bound (zero
// means "use the default"), a durability option without Dir, or a
// malformed index declaration. Open panics on invalid options; OpenChecked
// returns the error instead.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.MaxCommitRetries < 0 {
		return fmt.Errorf("repro: Options.MaxCommitRetries must be positive (or 0 for the default %d), got %d",
			txn.DefaultMaxRetries, o.MaxCommitRetries)
	}
	if o.Sync < SyncAlways || o.Sync > SyncOff {
		return fmt.Errorf("repro: Options.Sync must be SyncAlways, SyncBatched or SyncOff, got %d", o.Sync)
	}
	if o.Sync != SyncAlways && o.Dir == "" {
		return fmt.Errorf("repro: Options.Sync requires Options.Dir (an in-memory database has no log to sync)")
	}
	if o.CacheBytes < 0 {
		return fmt.Errorf("repro: Options.CacheBytes must be positive (or 0 for fully resident), got %d", o.CacheBytes)
	}
	if o.CacheBytes > 0 && o.Dir == "" {
		return fmt.Errorf("repro: Options.CacheBytes requires Options.Dir (paging needs a checkpoint chain to fault from)")
	}
	for _, decl := range o.Indexes {
		if _, _, _, err := index.ParseDecl(decl); err != nil {
			return fmt.Errorf("repro: Options.Indexes: %w", err)
		}
	}
	return nil
}

// DB is a main-memory database with integrity control. Transactions run
// under snapshot isolation with optimistic, first-committer-wins commit
// validation, so Submit, Query and the
// other read accessors are safe to call from any number of goroutines once
// the schema is set up. Definition calls — CreateRelation, DefineConstraint,
// DefineRule, DefineView, DropRule — mutate the shared schema and rule
// catalog without locking and must not run concurrently with submissions,
// mirroring PRISMA/DB's split between schema management and transaction
// processing.
type DB struct {
	sch   *schema.Database
	store *storage.Database
	exec  *txn.Executor
	cat   *rules.Catalog
	sub   *core.Subsystem
	opts  Options

	elidedTotal   *obs.Counter
	repairedTotal *obs.Counter

	viewNames map[string]bool
}

// Open creates an empty database; a nil opts selects the defaults. Every
// database enforces its rules one way: precompiled programs in their
// differential form (checks read the inserted and deleted tuples, not whole
// relations, where sound), minus each check the static safety analyzer
// proves the transaction cannot make fire. Both assume the state before each
// transaction satisfies every constraint. Invalid options panic with a
// descriptive error; use OpenChecked to receive the error instead.
func Open(opts *Options) *DB {
	db, err := OpenChecked(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// OpenChecked is Open returning option-validation errors instead of
// panicking.
func OpenChecked(opts *Options) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	sch := schema.MustDatabase()
	var store *storage.Database
	if o.Dir != "" {
		// The WAL writer and recovery replay resolve their metric handles at
		// open time, so the registry must exist before storage.Open — a
		// caller-supplied one, or a fresh private one (readable through
		// DB.Metrics) so the durable layers are never dark.
		reg := o.Metrics
		if reg == nil {
			reg = obs.NewRegistry()
		}
		s, err := storage.Open(o.Dir, sch, storage.DurOptions{
			Sync:            o.Sync.wal(),
			CheckpointBytes: o.CheckpointBytes,
			CacheBytes:      o.CacheBytes,
			Metrics:         reg,
			Tracer:          o.Tracer,
		})
		if err != nil {
			return nil, err
		}
		store = s
		// A reopened directory's stored schema supersedes the empty one.
		sch = store.Schema()
	} else {
		store = storage.New(sch)
		if o.Metrics != nil || o.Tracer != nil {
			reg := o.Metrics
			if reg == nil {
				reg = store.Registry() // keep the private registry, attach the tracer
			}
			store.SetObservability(reg, o.Tracer)
		}
	}
	exec := txn.NewExecutor(store)
	if o.MaxCommitRetries > 0 {
		exec.MaxRetries = o.MaxCommitRetries
	}
	cat := rules.NewCatalog(sch)
	db := &DB{
		sch:   sch,
		store: store,
		exec:  exec,
		cat:   cat,
		opts:  o,
		sub:   core.New(cat, core.Options{UseDifferential: true, Prune: true}),
	}
	db.elidedTotal = store.Registry().Counter("repro_txn_checks_elided_total")
	db.repairedTotal = store.Registry().Counter("repro_txn_checks_repaired_total")
	if o.Dir != "" {
		// Recovered relations never pass through CreateRelation again, so
		// their Options.Indexes declarations apply here (declarations naming
		// not-yet-created relations still wait for their CreateRelation).
		if err := db.applyDeclaredIndexes(); err != nil {
			_ = store.Close()
			return nil, err
		}
	}
	return db, nil
}

// resolveIndex resolves an index declaration's attribute names to column
// positions of rs; what names the declaration in the error.
func resolveIndex(what string, rs *schema.Relation, attrs []string) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		idx := rs.AttrIndex(a)
		if idx < 0 {
			return nil, fmt.Errorf("repro: %s: unknown attribute %q in %s", what, a, rs)
		}
		cols[i] = idx
	}
	return cols, nil
}

// ensureIndex defines the index over the column list cols unless one over
// the same list exists.
func (db *DB) ensureIndex(rel string, cols []int) error {
	for _, d := range db.store.IndexDefs(rel) {
		if slices.Equal(d, cols) {
			return nil
		}
	}
	return db.store.DefineIndex(rel, cols)
}

// applyDeclaredIndexes builds the Options.Indexes declarations whose
// relations already exist — the recovered relations of a durable reopen.
// Indexes already defined (typically recovered ones) are kept.
func (db *DB) applyDeclaredIndexes() error {
	for _, decl := range db.opts.Indexes {
		rel, attrs, _, err := index.ParseDecl(decl)
		if err != nil {
			continue // Validate reported malformed declarations
		}
		rs, ok := db.sch.Relation(rel)
		if !ok {
			continue
		}
		cols, err := resolveIndex(fmt.Sprintf("Options.Indexes %q", decl), rs, attrs)
		if err != nil {
			return err
		}
		if err := db.ensureIndex(rel, cols); err != nil {
			return fmt.Errorf("repro: applying Options.Indexes: %w", err)
		}
	}
	return nil
}

// CreateRelation declares a relation from DDL text:
// "relation beer(name string, type string, brewery string, alcohol int)".
// Types: int, float, string, bool. Declarations in Options.Indexes naming
// the relation are built immediately; an index declaration referencing an
// unknown attribute fails the creation.
func (db *DB) CreateRelation(ddl string) error {
	rs, err := lang.ParseRelationSchema(ddl)
	if err != nil {
		return err
	}
	// Resolve the relation's Options.Indexes declarations before touching
	// the schema or store, so a declaration naming a missing attribute
	// fails the creation atomically instead of leaving the relation
	// half-created.
	var pending [][]int
	for _, decl := range db.opts.Indexes {
		rel, attrs, _, err := index.ParseDecl(decl)
		if err != nil || rel != rs.Name {
			continue // Validate caught malformed declarations at Open
		}
		cols, err := resolveIndex(fmt.Sprintf("Options.Indexes %q", decl), rs, attrs)
		if err != nil {
			return err
		}
		pending = append(pending, cols)
	}
	if err := db.sch.Add(rs); err != nil {
		return err
	}
	if err := db.store.AddRelation(rs); err != nil {
		db.sch.Remove(rs.Name)
		return err
	}
	for _, cols := range pending {
		if err := db.ensureIndex(rs.Name, cols); err != nil {
			return fmt.Errorf("repro: applying Options.Indexes: %w", err)
		}
	}
	return nil
}

// CreateIndex declares a secondary index from "relation(attr, ...)" text
// (see Options.Indexes), building it from the relation's current contents.
// Like the other definition calls it must not run concurrently with
// submissions. A second index over the same attribute list is rejected as a
// duplicate.
func (db *DB) CreateIndex(decl string) error {
	rel, attrs, _, err := index.ParseDecl(decl)
	if err != nil {
		return err
	}
	rs, err := db.sch.MustFind(rel)
	if err != nil {
		return err
	}
	cols, err := resolveIndex("index "+decl, rs, attrs)
	if err != nil {
		return err
	}
	return db.store.DefineIndex(rel, cols)
}

// Indexes returns the defined secondary indexes as "relation(attr, ...)"
// declarations, each once, sorted.
func (db *DB) Indexes() []string {
	var out []string
	for _, name := range db.sch.Names() {
		rs, _ := db.sch.Relation(name)
		for _, cols := range db.store.IndexDefs(name) {
			attrs := make([]string, len(cols))
			for i, c := range cols {
				attrs[i] = rs.Attrs[c].Name
			}
			out = append(out, fmt.Sprintf("%s(%s)", name, strings.Join(attrs, ", ")))
		}
	}
	sort.Strings(out)
	return out
}

// addRule registers a compiled rule and, under AutoIndex, builds the indexes
// its enforcement programs probe; existing indexes over the same
// columns are kept. A failed index definition takes the rule out of the
// catalog again, so a failed definition call defines nothing.
func (db *DB) addRule(r *rules.Rule) error {
	if err := db.cat.Add(r); err != nil {
		return err
	}
	if err := db.ruleTouchesView(r); err != nil {
		_ = db.cat.Remove(r.Name) // just added, so Remove cannot fail
		return err
	}
	if !db.opts.AutoIndex {
		return nil
	}
	ip, _ := db.cat.Program(r.Name)
	for _, h := range ip.IndexHints {
		if err := db.ensureIndex(h.Relation, h.Columns); err != nil {
			_ = db.cat.Remove(r.Name) // just added, so Remove cannot fail
			return fmt.Errorf("repro: auto-indexing for rule %s: %w", r.Name, err)
		}
	}
	return nil
}

// MustCreateRelation is CreateRelation that panics on error; for examples
// and tests.
func (db *DB) MustCreateRelation(ddl string) {
	if err := db.CreateRelation(ddl); err != nil {
		panic(err)
	}
}

// EnsureRelation is CreateRelation for setup code that must run on both
// fresh and reopened durable directories: if the relation already exists
// with the same attributes (same names and types, in order), it is left
// untouched — contents, indexes and all; if it exists with different
// attributes, an error describes the mismatch; otherwise it is created.
func (db *DB) EnsureRelation(ddl string) error {
	rs, err := lang.ParseRelationSchema(ddl)
	if err != nil {
		return err
	}
	if cur, ok := db.sch.Relation(rs.Name); ok {
		if cur.String() != rs.String() {
			return fmt.Errorf("repro: relation %s already exists as %s", rs, cur)
		}
		return nil
	}
	return db.CreateRelation(ddl)
}

// Durable reports whether the database persists to disk (Options.Dir set).
func (db *DB) Durable() bool { return db.store.Durable() }

// Checkpoint writes a checkpoint of the current snapshot and truncates the
// write-ahead log behind it, bounding the work the next Open must replay.
// Durable databases checkpoint automatically as log bytes accumulate (see
// Options.CheckpointBytes); an explicit call is useful before backup or
// shutdown. Errors on an in-memory database. Safe to call concurrently with
// submissions.
func (db *DB) Checkpoint() error { return db.store.Checkpoint() }

// Close flushes and fsyncs the write-ahead log and stops background
// checkpointing, making the full committed state durable regardless of the
// sync policy. The database must not be used afterwards. Close on an
// in-memory database is a no-op.
func (db *DB) Close() error { return db.store.Close() }

// DefineConstraint registers a bare CL constraint with the default aborting
// response (the paper's "default way" of Section 4). The trigger set is
// generated from the condition. Enforcement assumes the current state
// already satisfies the constraint: existing contents are not checked, and
// loaded or pre-existing violations are not detected. A constraint whose
// condition reads a view is refused with ErrViewReadOnly: state it over the
// view's sources.
func (db *DB) DefineConstraint(name, condition string) error {
	r, err := lang.ParseConstraintRule(name, condition)
	if err != nil {
		return err
	}
	return db.addRule(r)
}

// MustDefineConstraint panics on error.
func (db *DB) MustDefineConstraint(name, condition string) {
	if err := db.DefineConstraint(name, condition); err != nil {
		panic(err)
	}
}

// DefineRule registers a full RL integrity rule:
//
//	[when INS(r), DEL(s)]
//	if not <CL condition>
//	then abort | [nontriggering] <program>
//
// As with DefineConstraint, enforcement assumes the current state already
// satisfies the condition; pre-existing violations are not detected. A rule
// whose condition, trigger set or action reads a view, or whose action
// writes one, is refused with ErrViewReadOnly; an action may write a view's
// sources.
func (db *DB) DefineRule(name, rl string) error {
	r, err := lang.ParseRule(name, rl, db.sch)
	if err != nil {
		return err
	}
	return db.addRule(r)
}

// MustDefineRule panics on error.
func (db *DB) MustDefineRule(name, rl string) {
	if err := db.DefineRule(name, rl); err != nil {
		panic(err)
	}
}

// DropRule removes a rule by name. A view's maintenance program
// ("view:<name>") cannot be dropped: the view would silently go stale.
func (db *DB) DropRule(name string) error {
	if v, ok := strings.CutPrefix(name, "view:"); ok && db.viewNames[v] {
		return fmt.Errorf("repro: drop rule %s: view %s: %w", name, v, ErrViewReadOnly)
	}
	return db.cat.Remove(name)
}

// ErrViewReadOnly is wrapped, with the view's name, by every operation that
// would leave a materialized view different from its definition: a Submit
// that writes the view, a Load into the view or into a relation it reads,
// dropping its maintenance program, and a rule that writes the view. A view
// is derived state; only its maintenance program writes it. A rule that
// reads a view is refused with it too, since no transaction raises the
// view's triggers and such a rule would never be checked.
var ErrViewReadOnly = errors.New("views are read-only derived state")

// DefineView creates a materialized view maintained through transaction
// modification (the paper's cited application beyond integrity control):
// any transaction updating a source relation is extended with the view's
// maintenance statements, so the view is consistent at every transaction
// boundary. The definition decides how: a tree of selections, renames,
// projections, joins, semijoins, antijoins and unions over base relations
// is maintained from the transaction's deltas (delete Δ⁻, insert Δ⁺, each
// deleted candidate checked against the new state where another witness
// could still produce it); aggregates, set difference and intersection are
// recomputed. The view is read-only (see ErrViewReadOnly).
//
//	db.DefineView("cheap", `select(beer, alcohol < 3)`)
func (db *DB) DefineView(name, exprSrc string) error {
	prog, err := lang.ParseProgram("q := "+exprSrc, db.sch)
	if err != nil {
		return err
	}
	assign, ok := prog[0].(*algebra.Assign)
	if !ok || len(prog) != 1 {
		return fmt.Errorf("repro: view definition must be a single expression")
	}
	v := &views.View{Name: name, Definition: assign.Expr}
	backing, err := views.Define(v, db.sch, db.cat, db.viewNames)
	if err != nil {
		return err
	}
	if err := db.store.AddRelation(backing); err != nil {
		db.sch.Remove(name)
		_ = db.cat.Remove("view:" + name)
		return err
	}
	if db.viewNames == nil {
		db.viewNames = make(map[string]bool)
	}
	db.viewNames[name] = true
	// Materialize the initial contents (sources may already hold data).
	refresh := algebra.Program{&algebra.Insert{Rel: name, Src: algebra.CloneExpr(assign.Expr)}}
	res, err := db.exec.Exec(txn.Bracket(refresh))
	if err != nil {
		return err
	}
	if !res.Committed {
		return fmt.Errorf("repro: initial view materialization aborted: %v", res.AbortReason)
	}
	return nil
}

// MustDefineView panics on error.
func (db *DB) MustDefineView(name, exprSrc string) {
	if err := db.DefineView(name, exprSrc); err != nil {
		panic(err)
	}
}

// writesView returns an error wrapping ErrViewReadOnly when a statement of
// prog writes a view's backing relation. A catalog without views pays one
// length test.
func (db *DB) writesView(prog algebra.Program) error {
	if len(db.viewNames) == 0 {
		return nil
	}
	for _, s := range prog {
		if rel, _ := algebra.Written(s); db.viewNames[rel] {
			return fmt.Errorf("repro: transaction writes view %s: %w", rel, ErrViewReadOnly)
		}
	}
	return nil
}

// ruleTouchesView returns an error wrapping ErrViewReadOnly, naming the
// view, when r reads a view — in its condition, its trigger set or its
// action — or its action writes one. A check over a view would be compiled
// against the view's backing relation, whose only writer, the view's
// maintenance program, raises no triggers, so the check would never run; an
// action writing a view would leave it different from its definition. A
// rule may write a view's sources: the view's program runs after every
// repair.
func (db *DB) ruleTouchesView(r *rules.Rule) error {
	if len(db.viewNames) == 0 {
		return nil
	}
	refuse := func(what, view string) error {
		return fmt.Errorf("repro: rule %s: %s view %s: %w", r.Name, what, view, ErrViewReadOnly)
	}
	for _, ref := range r.Info().Rels {
		if db.viewNames[ref.Name] {
			return refuse("condition reads", ref.Name)
		}
	}
	for _, t := range r.Triggers.Sorted() {
		if db.viewNames[t.Rel] {
			return refuse("trigger set names", t.Rel)
		}
	}
	reads := make(map[string]bool)
	for _, s := range r.Action.Program {
		if rel, _ := algebra.Written(s); db.viewNames[rel] {
			return refuse("action writes", rel)
		}
		algebra.ReadRels(s, reads)
	}
	for _, v := range db.Views() {
		if reads[v] {
			return refuse("action reads", v)
		}
	}
	return nil
}

// Views returns the names of the defined materialized views, sorted.
func (db *DB) Views() []string {
	out := make([]string, 0, len(db.viewNames))
	for n := range db.viewNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RuleNames returns the defined rule names, sorted.
func (db *DB) RuleNames() []string { return db.cat.Names() }

// RuleTriggers returns the (possibly generated) trigger set of a rule as a
// display string, e.g. "INS(beer), DEL(brewery)".
func (db *DB) RuleTriggers(name string) (string, error) {
	ip, ok := db.cat.Program(name)
	if !ok {
		return "", fmt.Errorf("repro: unknown rule %q", name)
	}
	return ip.Triggers.String(), nil
}

// EnforcementProgram returns the compiled differential enforcement program
// text of a rule, for inspection; a transaction receives the parts of it
// the safety analyzer cannot prove unnecessary (see Explain).
func (db *DB) EnforcementProgram(name string) (string, error) {
	ip, ok := db.cat.Program(name)
	if !ok {
		return "", fmt.Errorf("repro: unknown rule %q", name)
	}
	return ip.Program(true).String(), nil
}

// ValidateRules analyzes the triggering graph (Definition 6.1) and returns
// an error describing any cycles — rule sets that could trigger forever.
func (db *DB) ValidateRules() error {
	return graph.Build(db.cat.Programs()).Validate()
}

// TriggeringGraphDOT renders the triggering graph in Graphviz DOT format.
func (db *DB) TriggeringGraphDOT() string {
	return graph.Build(db.cat.Programs()).DOT()
}

// ModReport summarizes what transaction modification did: its depth, the
// statement counts before and after, how often each rule was selected, the
// compiled checks the static safety analyzer proved this transaction shape
// cannot make fire (each one ran neither reads nor probes), and the repair
// programs appended in place of plain alarm checks (constraints declared
// with an "on violation" clause). It carries counts only; Explain renders
// the modified program's text.
type ModReport = core.Report

// ErrTooDeep is wrapped, with the position, by the error of every call that
// parses text (Submit, Explain, Query, DefineConstraint, DefineRule,
// DefineView, CreateRelation) when the text nests deeper than lang.MaxDepth
// levels: hostile nesting is refused instead of overflowing the stack.
var ErrTooDeep = lang.ErrTooDeep

// ErrRetriesExhausted is wrapped by Result.Err when a transaction lost
// first-committer-wins validation on every attempt its retry budget
// (Options.MaxCommitRetries) allowed.
var ErrRetriesExhausted = txn.ErrRetriesExhausted

// Result reports the outcome of a submitted transaction.
type Result struct {
	Committed   bool
	Constraint  string     // violated constraint name when integrity aborted
	Reason      string     // abort reason text (Err.Error()), empty on commit
	Err         error      // the abort reason itself, nil on commit; wraps ErrRetriesExhausted when validation kept losing
	Report      *ModReport // what modification did, checks elided and repaired included; never nil
	Inserted    int
	Deleted     int
	Probes      int    // secondary-index probes issued instead of scans (key + range)
	RangeProbes int    // probes with a bound among Probes, each recording an interval read
	Retries     int    // conflict-induced re-executions before the outcome
	CommitTime  uint64 // logical time of the installed state; 0 if aborted
}

// Submit parses "begin ... end" transaction text, modifies it under the
// defined rules, and executes it atomically. Integrity violations abort the
// transaction and are reported in the Result (not as an error); errors are
// reserved for malformed input.
//
// Submit is safe to call from many goroutines: the transaction executes
// against a pinned snapshot while other submissions proceed in parallel,
// and commits through first-committer-wins validation, retrying against a
// fresh snapshot (alarm checks re-run) up to the configured bound. An
// exhausted retry budget is reported as an aborted Result (empty
// Constraint, Err wrapping ErrRetriesExhausted); the database is left
// untouched.
func (db *DB) Submit(src string) (*Result, error) {
	prog, err := lang.ParseTransaction(src, db.sch)
	if err != nil {
		return nil, err
	}
	if err := db.writesView(prog); err != nil {
		return nil, err
	}
	t, rep, err := db.sub.Modify(txn.Bracket(prog))
	if err != nil {
		return nil, err
	}
	if rep.ChecksElided > 0 {
		db.elidedTotal.Add(uint64(rep.ChecksElided))
	}
	if rep.ChecksRepaired > 0 {
		db.repairedTotal.Add(uint64(rep.ChecksRepaired))
	}
	res, err := db.exec.Exec(t)
	if err != nil {
		return nil, err
	}
	return toResult(res, rep), nil
}

func toResult(res *txn.Result, rep *core.Report) *Result {
	out := &Result{
		Committed:   res.Committed,
		Report:      rep,
		Inserted:    res.Stats.TuplesInserted,
		Deleted:     res.Stats.TuplesDeleted,
		Probes:      res.Stats.IndexProbes + res.Stats.RangeProbes,
		RangeProbes: res.Stats.RangeProbes,
		Retries:     res.Retries,
		CommitTime:  res.CommitTime,
	}
	if res.AbortReason != nil {
		out.Err = res.AbortReason
		out.Reason = res.AbortReason.Error()
		var v *algebra.ViolationError
		if errors.As(res.AbortReason, &v) {
			out.Constraint = v.Constraint
		}
	}
	return out
}

// Explain returns the modified form of a transaction without executing it.
func (db *DB) Explain(src string) (string, *ModReport, error) {
	prog, err := lang.ParseTransaction(src, db.sch)
	if err != nil {
		return "", nil, err
	}
	if err := db.writesView(prog); err != nil {
		return "", nil, err
	}
	modified, rep, err := db.sub.Modify(txn.Bracket(prog))
	if err != nil {
		return "", nil, err
	}
	return modified.String(), rep, nil
}

// Rows is a query result: column names plus row data as native Go values
// (int64, float64, string, bool, nil).
type Rows struct {
	Columns []string
	Data    [][]any
}

// Query evaluates a relational algebra expression against the current
// database state, e.g. "select(beer, alcohol > 5)".
func (db *DB) Query(exprSrc string) (*Rows, error) {
	prog, err := lang.ParseProgram("q := "+exprSrc, db.sch)
	if err != nil {
		return nil, err
	}
	assign, ok := prog[0].(*algebra.Assign)
	if !ok || len(prog) != 1 {
		return nil, fmt.Errorf("repro: query must be a single expression")
	}
	tenv := algebra.NewTypeEnv(db.sch)
	out, err := assign.Expr.TypeCheck(tenv)
	if err != nil {
		return nil, err
	}
	rel, err := assign.Expr.Eval(txn.NewOverlay(db.store))
	if err != nil {
		return nil, err
	}
	rows := &Rows{Columns: out.AttrNames()}
	for _, t := range rel.SortedTuples() {
		row := make([]any, len(t))
		for i, v := range t {
			row[i] = fromValue(v)
		}
		rows.Data = append(rows.Data, row)
	}
	return rows, nil
}

// Count returns the cardinality of a relation.
func (db *DB) Count(rel string) (int, error) {
	r, err := db.store.Relation(rel)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

// Relations returns the declared relation names, sorted.
func (db *DB) Relations() []string { return db.sch.Names() }

// LogicalTime returns the number of committed transactions.
func (db *DB) LogicalTime() uint64 { return db.store.Time() }

// Metrics returns a point-in-time snapshot of every engine metric — the
// registry passed as Options.Metrics, or the database's private one. Safe to
// call concurrently with submissions; see docs/OBSERVABILITY.md for the
// metric catalog.
func (db *DB) Metrics() obs.Snapshot { return db.store.Registry().Snapshot() }

// WriteProm writes the database's metrics to w in Prometheus text exposition
// format. Mount it on an HTTP handler to scrape the engine:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, *http.Request) {
//		db.WriteProm(w)
//	})
func (db *DB) WriteProm(w io.Writer) error { return obs.WriteProm(w, db.store.Registry()) }

// PublishExpvar publishes the database's metric registry as an expvar
// variable under the given name (e.g. "repro"), making it visible on
// /debug/vars. Publishing the same name twice is a no-op; distinct databases
// need distinct names.
func (db *DB) PublishExpvar(name string) { obs.PublishExpvar(name, db.store.Registry()) }

// The observability types live in internal/obs; these aliases re-export the
// ones external consumers need, so Options.Metrics, Options.Tracer and
// DB.Metrics() are usable without importing an internal package.

// MetricsRegistry collects counters, gauges and histograms from every engine
// layer. Share one across databases to aggregate, or pass distinct
// registries to keep them apart. The zero value is not usable; construct
// with NewMetricsRegistry.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry for Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsSnapshot is the point-in-time view DB.Metrics returns: plain maps
// of counter, gauge and histogram values keyed by metric name.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is one histogram's state inside a MetricsSnapshot;
// Quantile estimates percentiles (latency histograms are in nanoseconds).
type HistogramSnapshot = obs.HistSnapshot

// Tracer receives typed transaction-lifecycle events; see
// docs/OBSERVABILITY.md for the event reference. Callbacks run inline on
// engine goroutines: keep them fast and do not call back into the database.
type Tracer = obs.Tracer

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = obs.TracerFunc

// TraceEvent is one lifecycle event; Kind selects which fields are set.
type TraceEvent = obs.Event

// TraceEventKind identifies a TraceEvent's type.
type TraceEventKind = obs.EventKind

// Re-exported event kinds, for filtering TraceEvents by Kind.
const (
	EvTxnBegin        = obs.EvTxnBegin
	EvTxnProbe        = obs.EvTxnProbe
	EvTxnRangeProbe   = obs.EvTxnRangeProbe
	EvTxnScan         = obs.EvTxnScan
	EvTxnEnqueue      = obs.EvTxnEnqueue
	EvTxnValidate     = obs.EvTxnValidate
	EvWALAppend       = obs.EvWALAppend
	EvWALFsync        = obs.EvWALFsync
	EvTxnCommit       = obs.EvTxnCommit
	EvEpochPublish    = obs.EvEpochPublish
	EvTxnRetry        = obs.EvTxnRetry
	EvSnapshotTooOld  = obs.EvSnapshotTooOld
	EvCheckpointStart = obs.EvCheckpointStart
	EvCheckpointEnd   = obs.EvCheckpointEnd
	EvWALTruncate     = obs.EvWALTruncate
	EvRecoveryReplay  = obs.EvRecoveryReplay
)

// Load bulk-inserts rows into a relation without integrity control or
// transactional bookkeeping; intended for fixtures and benchmark data. Rows
// use native Go values (int/int64, float64, string, bool, nil). Enforcement
// assumes the state satisfies every constraint, so the rows must too: a
// violation loaded here is not detected. Views are maintained only by
// transactions, so Load refuses a view and any relation a view reads
// (ErrViewReadOnly); load sources before defining views over them.
func (db *DB) Load(rel string, rows [][]any) error {
	rs, err := db.sch.MustFind(rel)
	if err != nil {
		return err
	}
	if db.viewNames[rel] {
		return fmt.Errorf("repro: load into view %s: %w", rel, ErrViewReadOnly)
	}
	for _, v := range db.Views() {
		ip, _ := db.cat.Program("view:" + v)
		if ip.Triggers.Contains(trigger.Trigger{Update: trigger.INS, Rel: rel}) {
			return fmt.Errorf("repro: load into %s, which view %s reads: %w", rel, v, ErrViewReadOnly)
		}
	}
	cur, err := db.store.Relation(rel)
	if err != nil {
		return err
	}
	next := cur.Clone()
	for _, row := range rows {
		if len(row) != rs.Arity() {
			return fmt.Errorf("repro: row arity %d, want %d", len(row), rs.Arity())
		}
		t := make(relation.Tuple, len(row))
		for i, v := range row {
			tv, err := toValue(v)
			if err != nil {
				return fmt.Errorf("repro: column %s: %w", rs.Attrs[i].Name, err)
			}
			t[i] = tv
		}
		next.InsertUnchecked(t)
	}
	return db.store.Load(next)
}

// String renders a summary of the database: relations with cardinalities and
// rule names.
func (db *DB) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "database at t=%d\n", db.store.Time())
	for _, name := range db.sch.Names() {
		r, _ := db.store.Relation(name)
		rs, _ := db.sch.Relation(name)
		fmt.Fprintf(&sb, "  %s: %d tuples\n", rs, r.Len())
	}
	names := db.cat.Names()
	sort.Strings(names)
	fmt.Fprintf(&sb, "  rules: %s\n", strings.Join(names, ", "))
	return sb.String()
}

// toValue converts a native Go value to an engine value.
func toValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null(), nil
	case int:
		return value.Int(int64(x)), nil
	case int32:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float32:
		return value.Float(float64(x)), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.String(x), nil
	case bool:
		return value.Bool(x), nil
	default:
		return value.Null(), fmt.Errorf("unsupported value type %T", v)
	}
}

// fromValue converts an engine value to a native Go value.
func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}
