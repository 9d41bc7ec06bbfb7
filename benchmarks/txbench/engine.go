package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// outcome is what a submitted transaction reports back.
type outcome struct {
	committed  bool
	constraint string // violated constraint when integrity aborted it
	reason     string
}

// engine is the surface both drivers offer to set-up, load and verification
// code: the public façade (untraced runs) and the stack assembled from the
// layers' public functions (traced runs).
type engine interface {
	CreateRelation(ddl string) error
	DefineConstraint(name, condition string) error
	Load(rel string, rows [][]any) error
	Query(expr string) ([][]any, error)
	Count(rel string) (int, error)
	Checkpoint() error
	Close() error
	// session returns client's handle for submitting operations.
	session(client int, seed uint64) session
}

// session is one closed-loop client's connection.
type session interface {
	Submit(src string) (outcome, error)
	Query(expr string) ([][]any, error)
}

// facade drives the engine the way a user does.
type facade struct{ *repro.DB }

// facadeMetrics is the one registry every façade database of the process
// registers on. The engine caches a handle set per registry for good
// (txn.metricsCache), about 250 KiB each, so the private registry of every
// database a run builds and discards would stay in heap_live_mb.
var facadeMetrics = obs.NewRegistry()

func openFacade(w *workload, dir string, paged bool) (engine, error) {
	opts := &repro.Options{
		UseDifferential: true,
		AutoIndex:       w.indexed,
		Indexes:         w.indexDecls(),
		Metrics:         facadeMetrics,
	}
	if w.durable {
		opts.Dir, opts.Sync, opts.CheckpointBytes = dir, w.sync, w.checkpointBytes
		if paged {
			opts.CacheBytes = w.cacheBytes
		}
	}
	db, err := repro.OpenChecked(opts)
	if err != nil {
		return nil, err
	}
	return facade{db}, nil
}

func (f facade) session(int, uint64) session { return f }

func (f facade) Submit(src string) (outcome, error) {
	res, err := f.DB.Submit(src)
	if err != nil {
		return outcome{}, err
	}
	return outcome{committed: res.Committed, constraint: res.Constraint, reason: res.Reason}, nil
}

func (f facade) Query(expr string) ([][]any, error) {
	rows, err := f.DB.Query(expr)
	if err != nil {
		return nil, err
	}
	return rows.Data, nil
}

// stack is the same engine assembled from the layers, so the traced run can
// put a span around each layer's call from outside the program.
type stack struct {
	w     *workload
	sch   *schema.Database
	store *storage.Database
	cat   *rules.Catalog
	sub   *core.Subsystem
	seq   *txn.Sequencer
	tr    *tracer
}

func openStack(w *workload, dir string, paged bool, reg *obs.Registry, tr *tracer) (engine, error) {
	sch := schema.MustDatabase()
	var store *storage.Database
	if w.durable {
		policy := wal.SyncAlways
		if w.sync == repro.SyncOff {
			policy = wal.SyncOff
		}
		opts := storage.DurOptions{Sync: policy, CheckpointBytes: w.checkpointBytes, Metrics: reg}
		if paged {
			opts.CacheBytes = w.cacheBytes
		}
		t0 := time.Now()
		s, err := storage.Open(dir, sch, opts)
		tr.openNs = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		store, sch = s, s.Schema()
	} else {
		store = storage.New(sch)
		store.SetObservability(reg, nil)
	}
	cat := rules.NewCatalog(sch)
	return &stack{
		w: w, sch: sch, store: store, cat: cat, tr: tr,
		sub: core.New(cat, core.Options{UseDifferential: true, Prune: true}),
		seq: txn.NewSequencer(store),
	}, nil
}

func (s *stack) CreateRelation(ddl string) error {
	rs, err := lang.ParseRelationSchema(ddl)
	if err != nil {
		return err
	}
	if err := s.sch.Add(rs); err != nil {
		return err
	}
	if err := s.store.AddRelation(rs); err != nil {
		return err
	}
	for _, decl := range s.w.indexDecls() {
		rel, attrs, _, err := index.ParseDecl(decl)
		if err != nil {
			return err
		}
		if rel != rs.Name {
			continue
		}
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			cols[i] = rs.AttrIndex(a)
		}
		if err := s.store.DefineIndex(rel, cols); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) DefineConstraint(name, condition string) error {
	r, err := lang.ParseConstraintRule(name, condition)
	if err != nil {
		return err
	}
	if err := s.cat.Add(r); err != nil {
		return err
	}
	if !s.w.indexed {
		return nil
	}
	// The façade's AutoIndex: build the indexes the rule's enforcement
	// joins would probe, unless they exist (a reopen recovers them).
	ip, _ := s.cat.Program(name)
	for _, h := range ip.IndexHints {
		defs, define := s.store.IndexDefs(h.Relation), s.store.DefineIndex
		if h.Ordered {
			defs, define = s.store.OrderedIndexDefs(h.Relation), s.store.DefineOrderedIndex
		}
		exists := false
		for _, cols := range defs {
			exists = exists || index.Sig(cols) == index.Sig(h.Columns)
		}
		if !exists {
			if err := define(h.Relation, h.Columns); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *stack) Load(rel string, rows [][]any) error {
	cur, err := s.store.Relation(rel)
	if err != nil {
		return err
	}
	next := cur.Clone()
	for _, row := range rows {
		t := make(relation.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int:
				t[i] = value.Int(int64(x))
			case int64:
				t[i] = value.Int(x)
			case string:
				t[i] = value.String(x)
			default:
				return fmt.Errorf("load %s: unsupported value %T", rel, v)
			}
		}
		next.InsertUnchecked(t)
	}
	return s.store.Load(next)
}

func (s *stack) Count(rel string) (int, error) {
	r, err := s.store.Relation(rel)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

func (s *stack) Checkpoint() error { return s.store.Checkpoint() }
func (s *stack) Close() error      { return s.store.Close() }

// Query serves set-up and verification, which record no spans.
func (s *stack) Query(expr string) ([][]any, error) { return s.query(expr, nil) }

// query evaluates an algebra expression the way repro.DB.Query does,
// recording one span per layer in tb.
func (s *stack) query(expr string, tb *spanBuf) ([][]any, error) {
	root := tb.begin(spanOp, -1)
	defer tb.end(root)
	sp := tb.begin(spanParse, root)
	prog, err := lang.ParseProgram("q := "+expr, s.sch)
	tb.end(sp)
	if err != nil {
		return nil, err
	}
	assign, ok := prog[0].(*algebra.Assign)
	if !ok || len(prog) != 1 {
		return nil, fmt.Errorf("query must be a single expression")
	}
	sp = tb.begin(spanTypecheck, root)
	_, err = assign.Expr.TypeCheck(algebra.NewTypeEnv(s.sch))
	tb.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tb.begin(spanExecUser, root)
	rel, err := assign.Expr.Eval(txn.NewOverlay(s.store))
	tb.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tb.begin(spanReport, root)
	defer tb.end(sp)
	var out [][]any
	for _, t := range rel.SortedTuples() {
		row := make([]any, len(t))
		for i, v := range t {
			switch v.Kind() {
			case value.KindInt:
				row[i] = v.AsInt()
			case value.KindString:
				row[i] = v.AsString()
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func (s *stack) session(client int, seed uint64) session {
	return &stackSession{
		st:  s,
		tb:  s.tr.client(client),
		rng: rand.New(rand.NewPCG(seed, uint64(client)+1<<32)),
	}
}

// stackSession performs txn.Executor's optimistic attempt loop itself, so
// execution, commit and backoff are separate spans.
type stackSession struct {
	st  *stack
	tb  *spanBuf
	rng *rand.Rand
}

// Retry backoff of txn.ExecOptimistic: attempt k sleeps a jittered delay in
// [b·2^k/2, b·2^k), capped.
const (
	retryBackoffBase = 20 * time.Microsecond
	retryBackoffCap  = 2 * time.Millisecond
)

func (c *stackSession) Query(expr string) ([][]any, error) { return c.st.query(expr, c.tb) }

func (c *stackSession) Submit(src string) (outcome, error) {
	st, tb := c.st, c.tb
	root := tb.begin(spanOp, -1)
	defer tb.end(root)

	sp := tb.begin(spanParse, root)
	prog, err := lang.ParseTransaction(src, st.sch)
	tb.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = tb.begin(spanModify, root)
	t, rep, err := st.sub.Modify(txn.Bracket(prog))
	tb.end(sp)
	if err != nil {
		return outcome{}, err
	}
	tb.stmtsAdded += int64(rep.FinalStmts - rep.OriginalStmts)
	tb.checksElided += int64(rep.ChecksElided)
	sp = tb.begin(spanTypecheck, root)
	err = t.Program.TypeCheck(algebra.NewTypeEnv(st.sch))
	tb.end(sp)
	if err != nil {
		return outcome{}, err
	}

	var out outcome
	for attempt := 0; ; attempt++ {
		tb.attempts++
		ov := txn.NewOverlay(st.store)
		// Statements of the submitted program, then the statements
		// modification appended: the paper's cost of integrity control.
		sp = tb.begin(spanExecUser, root)
		var execErr error
		for i, stmt := range t.Program {
			if i == rep.OriginalStmts {
				tb.end(sp)
				sp = tb.begin(spanExecEnforce, root)
			}
			if execErr = stmt.Exec(ov); execErr != nil {
				break
			}
		}
		tb.end(sp)
		if execErr != nil {
			out.reason = execErr.Error()
			var v *algebra.ViolationError
			if errors.As(execErr, &v) {
				out.constraint = v.Constraint
			}
			break
		}
		sp = tb.begin(spanCommit, root)
		_, conflict, err := st.seq.TryCommit(ov)
		tb.end(sp)
		if err != nil {
			return outcome{}, err
		}
		if conflict == nil {
			out.committed = true
			break
		}
		if attempt >= txn.DefaultMaxRetries {
			out.reason = "retries exhausted: " + conflict.String()
			break
		}
		tb.retries++
		d := min(retryBackoffBase<<min(attempt, 10), retryBackoffCap)
		sp = tb.begin(spanBackoff, root)
		time.Sleep(d/2 + time.Duration(c.rng.Int64N(int64(d/2))))
		tb.end(sp)
	}
	// The façade renders the modified program into every result's report.
	sp = tb.begin(spanReport, root)
	_ = t.String()
	tb.end(sp)
	return out, nil
}
