package txn

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/algebra"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Stats counts the observable work a transaction performed.
type Stats struct {
	Statements     int
	TuplesInserted int
	TuplesDeleted  int
	// IndexProbes counts secondary-index probes issued instead of relation
	// scans (algebra.ProbeEnv); each one recorded a probed-key read rather
	// than a whole-relation read.
	IndexProbes int
	// RangeProbes counts ordered-index range probes issued instead of
	// relation scans (algebra.RangeProbeEnv); each one recorded an interval
	// read rather than a whole-relation read.
	RangeProbes int
}

// Result reports the outcome of executing a transaction. When Committed is
// false, AbortReason holds the cause — an *algebra.ViolationError when an
// alarm fired, ErrRetriesExhausted when optimistic validation kept losing,
// or any runtime evaluation error.
type Result struct {
	Committed   bool
	AbortReason error
	Stats       Stats
	// Retries counts conflict-induced re-executions: 0 means the first
	// attempt committed (or aborted on its own merits).
	Retries int
	// CommitTime is the logical time of the installed state; 0 when the
	// transaction did not commit.
	CommitTime uint64
}

// Violation returns the integrity violation that aborted the transaction,
// or nil if the transaction committed or aborted for another reason.
func (r *Result) Violation() *algebra.ViolationError {
	var v *algebra.ViolationError
	if errors.As(r.AbortReason, &v) {
		return v
	}
	return nil
}

// Executor runs transactions against a database with atomicity: either the
// whole program's effects are installed as the next database state, or the
// database is left untouched (Section 2.2). Each execution pins a snapshot
// and commits through the sequencer, so one executor may be shared by any
// number of goroutines.
type Executor struct {
	db  *storage.Database
	seq *Sequencer
	// MaxRetries bounds how often Exec re-executes a transaction that lost
	// commit validation. NewExecutor sets DefaultMaxRetries; change it before
	// concurrent use.
	MaxRetries int
}

// NewExecutor returns an executor over db.
func NewExecutor(db *storage.Database) *Executor {
	return &Executor{db: db, seq: NewSequencer(db), MaxRetries: DefaultMaxRetries}
}

// DB returns the underlying database.
func (e *Executor) DB() *storage.Database { return e.db }

// Retry backoff. First-committer-wins guarantees some transaction commits
// in every validation round, but without pacing a hot-relation loser can
// burn through its whole retry budget in microseconds while the same winner
// keeps beating it. Each conflict therefore sleeps a bounded, exponentially
// growing, jittered delay before re-executing: attempt k waits a uniformly
// random duration in [b·2^k/2, b·2^k), capped at retryBackoffCap, so
// colliding retriers spread out instead of re-colliding in lockstep.
const (
	retryBackoffBase = 20 * time.Microsecond
	retryBackoffCap  = 2 * time.Millisecond
)

// backoffDelay returns the jittered sleep before retry attempt+1.
func backoffDelay(attempt int) time.Duration {
	d := retryBackoffBase << min(attempt, 10)
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	return d/2 + rand.N(d/2)
}

// Exec type-checks and runs t under snapshot isolation with optimistic
// commit validation. A type error rejects the transaction before any
// statement runs and is returned as the error. The program runs against a
// pinned snapshot; runtime failures — including integrity violations
// signalled by alarm statements — abort the transaction and are reported in
// the Result. Otherwise the sequencer installs the result iff no
// concurrently committed transaction wrote a tuple (or scanned relation)
// this one depends on. On conflict the transaction is re-executed from
// scratch against a fresh snapshot — alarm checks embedded by transaction
// modification re-run too, so a retried commit is exactly as safe as a
// first-attempt one — up to MaxRetries times, with bounded exponential
// backoff and jitter between attempts. Exhausting the budget reports an
// aborted Result wrapping ErrRetriesExhausted, never a half-installed state.
func (e *Executor) Exec(t *Transaction) (*Result, error) {
	tenv := algebra.NewTypeEnv(e.db.Schema())
	if err := t.Program.TypeCheck(tenv); err != nil {
		return nil, fmt.Errorf("txn: transaction rejected: %w", err)
	}

	met, tr := metricsOf(e.db), e.db.Tracer()
	for attempt := 0; ; attempt++ {
		met.attempts.Inc()
		ov := NewOverlay(e.db)
		ov.SetLabel(t.Label)
		if tr != nil {
			tr.Event(obs.Event{Kind: obs.EvTxnBegin, Txn: t.Label, Time: ov.base.Time(), N: uint64(attempt)})
		}
		if res := e.attempt(t, ov); res != nil {
			met.aborts.Inc()
			res.Retries = attempt
			return res, nil
		}
		ct, conflict, err := e.seq.TryCommit(ov)
		if err != nil {
			return nil, err
		}
		if conflict == nil {
			return &Result{Committed: true, Stats: *ov.stats, Retries: attempt, CommitTime: ct}, nil
		}
		if attempt >= e.MaxRetries {
			met.aborts.Inc()
			return &Result{
				Committed:   false,
				AbortReason: fmt.Errorf("%w after %d attempts (last conflict: %s)", ErrRetriesExhausted, attempt+1, conflict),
				Stats:       *ov.stats,
				Retries:     attempt,
			}, nil
		}
		met.retries.Inc()
		if tr != nil {
			tr.Event(obs.Event{Kind: obs.EvTxnRetry, Txn: t.Label, N: uint64(attempt), Relation: conflict.Relation, Key: conflict.Key})
		}
		time.Sleep(backoffDelay(attempt))
	}
}

// attempt runs the program once against ov. A non-nil Result is final (the
// transaction aborted on its own: alarm or runtime error) and no commit
// should be tried.
func (e *Executor) attempt(t *Transaction, ov *Overlay) *Result {
	for _, stmt := range t.Program {
		ov.stats.Statements++
		ov.met.statements.Inc()
		var tStmt time.Time
		if ov.met.statementSeconds != nil {
			tStmt = time.Now()
		}
		if err := stmt.Exec(ov); err != nil {
			// Abort: the overlay is discarded, the pinned snapshot remains
			// the committed state.
			return &Result{Committed: false, AbortReason: err, Stats: *ov.stats}
		}
		if ov.met.statementSeconds != nil {
			ov.met.statementSeconds.Observe(uint64(time.Since(tStmt)))
		}
	}
	// End bracket: temporary relations vanish with the overlay; the caller
	// hands the working state to the sequencer for validation + install.
	return nil
}
