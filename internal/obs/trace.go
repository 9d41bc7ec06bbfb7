package obs

import "time"

// EventKind identifies a transaction- or epoch-lifecycle tracing point.
type EventKind uint8

const (
	// EvTxnBegin: an execution attempt pinned its base snapshot.
	// Txn, Time (snapshot logical time), N (attempt number, 0-based).
	EvTxnBegin EventKind = iota + 1
	// EvTxnProbe: an index key probe was recorded in the read set.
	// Txn, Relation, N (probe key count).
	EvTxnProbe
	// EvTxnRangeProbe: an index probe with a bound was recorded.
	// Txn, Relation, N (interval count).
	EvTxnRangeProbe
	// EvTxnScan: a whole-relation read was recorded. Txn, Relation.
	EvTxnScan
	// EvTxnEnqueue: a commit joined the group-commit queue. Emitted
	// lock-free (the only event a tracer may block in). Txn, Time (base
	// snapshot time).
	EvTxnEnqueue
	// EvTxnValidate: the epoch drainer reached a verdict for one member.
	// Txn, OK; on conflict Relation/Key name the first conflicting read
	// (both empty for a snapshot-too-old refusal). Runs under the commit lock.
	EvTxnValidate
	// EvWALAppend: the epoch's WAL records were appended (and group-fsynced
	// under sync=always). Epoch, LSN, Bytes, Dur. Runs under the commit lock.
	EvWALAppend
	// EvWALFsync: a batched-policy background fsync pass completed.
	// N (segments synced), Dur.
	EvWALFsync
	// EvTxnCommit: a member's commit became durable-ordered and is about to
	// be acknowledged at Time. Txn, Time, Epoch.
	EvTxnCommit
	// EvEpochPublish: the epoch's snapshot swap completed. Epoch (published
	// logical time), N (accepted members), Dur (publish-stage latency,
	// including the pipeline-order wait).
	EvEpochPublish
	// EvTxnRetry: optimistic execution lost validation and will re-execute
	// after backoff. Txn, N (attempt number just failed, 0-based),
	// Relation/Key from the conflict.
	EvTxnRetry
	// EvSnapshotTooOld: a commit based on a snapshot behind the commit-log
	// retention span was refused. Txn, Time (truncation watermark).
	EvSnapshotTooOld
	// EvCheckpointStart: a checkpoint began. Time (snapshot time), LSN.
	EvCheckpointStart
	// EvCheckpointEnd: a checkpoint committed. Time, LSN, Bytes, Dur,
	// OK (true when the checkpoint was full, i.e. self-contained).
	EvCheckpointEnd
	// EvWALTruncate: sealed WAL segments behind the checkpoint watermark
	// were removed. LSN (watermark), N (segments removed).
	EvWALTruncate
	// EvRecoveryReplay: recovery replay progress (every ~1024 records and
	// once at the end). N (records applied so far), Bytes, LSN.
	EvRecoveryReplay
)

var kindNames = [...]string{
	EvTxnBegin:        "txn-begin",
	EvTxnProbe:        "txn-probe",
	EvTxnRangeProbe:   "txn-range-probe",
	EvTxnScan:         "txn-scan",
	EvTxnEnqueue:      "txn-enqueue",
	EvTxnValidate:     "txn-validate",
	EvWALAppend:       "wal-append",
	EvWALFsync:        "wal-fsync",
	EvTxnCommit:       "txn-commit",
	EvEpochPublish:    "epoch-publish",
	EvTxnRetry:        "txn-retry",
	EvSnapshotTooOld:  "snapshot-too-old",
	EvCheckpointStart: "checkpoint-start",
	EvCheckpointEnd:   "checkpoint-end",
	EvWALTruncate:     "wal-truncate",
	EvRecoveryReplay:  "recovery-replay",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one lifecycle occurrence. The struct is flat and reused across
// kinds; each kind's doc comment above lists which fields it populates.
type Event struct {
	Kind     EventKind
	Txn      string // transaction label, when one was set
	Relation string
	Key      string // conflict key bytes (equality-canonical encoding)
	OK       bool   // validate verdict / checkpoint incremental
	Epoch    uint64 // epoch's published logical time (last of its block)
	Time     uint64 // logical time relevant to the event
	LSN      uint64
	N        uint64 // generic count (see kind docs)
	Bytes    uint64
	Dur      time.Duration
}

// Tracer receives lifecycle events. Implementations are called
// synchronously from the pipeline — several sites hold the commit lock, so a
// tracer must return promptly and must not re-enter the database. Only
// EvTxnEnqueue is emitted lock-free.
type Tracer interface {
	Event(e Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// Event calls f(e).
func (f TracerFunc) Event(e Event) { f(e) }
