package txn

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// DefaultMaxRetries bounds the optimistic re-execution loop when the caller
// does not choose a bound. Conflicts re-run the whole (modified)
// transaction, alarms included, so retries are correct but not free; the
// default is generous because in-memory re-execution is cheap and
// first-committer-wins guarantees global progress (some transaction commits
// in every validation round).
const DefaultMaxRetries = 64

// ErrRetriesExhausted reports a transaction that kept losing
// first-committer-wins validation until its retry budget ran out. The
// database is left untouched by the transaction; resubmitting is safe.
var ErrRetriesExhausted = errors.New("txn: optimistic commit retries exhausted")

// Sequencer is the commit point of the concurrent engine: transactions
// execute against pinned snapshots in parallel, then their commits are
// validated and installed (first-committer-wins) by the storage layer's
// group-commit sequencer. A commit enqueues on the global combining queue;
// one submitter drains the queue as an epoch, validates every member
// against one base snapshot (intra-epoch conflicts resolve by queue order),
// and folds the survivors into one successor instance per written
// relation, one log record, and one published snapshot swap. Commits that
// queue while an epoch runs form the next epoch, so the commit point batches
// under load instead of serializing per transaction.
//
// Validation is tuple-granular where the overlay recorded tuple keys: a
// concurrent commit to the same relation invalidates this transaction only
// if it touched a tuple this one read or wrote, or if this one scanned the
// relation. That preserves the paper's central guarantee — a modified
// transaction's alarm checks ran against its snapshot, and validation
// proves every value those checks (and its updates) depended on was still
// current at commit, so serializable commits imply no violated state is
// ever installed — while letting writers of disjoint tuples in one hot
// relation commit concurrently, their deltas merged at publication.
type Sequencer struct {
	db *storage.Database
}

// NewSequencer returns a sequencer committing into db.
func NewSequencer(db *storage.Database) *Sequencer { return &Sequencer{db: db} }

// TryCommit validates the overlay's read set against every delta committed
// since its base snapshot and, if nothing it depends on changed, installs
// its write set (merged over any tuple-disjoint concurrent deltas) as the
// next database state. A non-nil Conflict (with nil error) means another
// transaction won: the caller should discard the overlay and re-execute
// against a fresh snapshot. Errors indicate malformed commits and are not
// retryable.
func (s *Sequencer) TryCommit(o *Overlay) (uint64, *storage.Conflict, error) {
	t, conflict, err := s.db.CommitValidated(o.CommitRecord())
	if err != nil {
		return 0, nil, fmt.Errorf("txn: commit failed: %w", err)
	}
	return t, conflict, nil
}
