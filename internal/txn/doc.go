// Package txn implements transactions (Definition 2.5): extended relational
// algebra programs enclosed in transaction brackets, executed atomically
// against a database state. The executor maintains the intermediate states
// D^{t.i} in a copy-on-write overlay, exposes the pre-transaction state and
// the differential relations as auxiliary relations, and implements the end
// bracket: commit installs [D^{t.n}] as D^{t+1}, abort restores D^t.
//
// # Concurrency
//
// Transactions run under snapshot isolation with optimistic concurrency
// control. Each execution pins the current immutable snapshot, runs the
// whole (modified) program against a private overlay, and then asks the
// commit sequencer to install the result. Commit validation and
// installation work as follows:
//
//   - One commit log. The store keeps the ins/del deltas of the epochs
//     that wrote anything in one commit log, in commit-time order, under
//     one commit lock and one logical clock (Definition 2.3: the database
//     is one sequence of transitions).
//
//   - Group commit in epochs. Commits do not take the commit lock
//     themselves: they enqueue on a global combining queue, and one
//     submitter — the drainer — claims everything queued as an epoch and
//     validates all members against one base snapshot. Intra-epoch
//     conflicts resolve by queue order at the same granularity as
//     cross-epoch validation; the surviving members' deltas fold into one
//     successor instance and one index push per written relation, one log
//     record, and one published snapshot swap, so N queued commits pay one
//     critical section instead of N. Validation through the swap is that
//     one critical section: each epoch starts from the snapshot its
//     predecessor published.
//
//   - Tuple-granular validation. The overlay records, per base relation,
//     either a whole-relation read (the relation was materialized through
//     cur/old) or the set of canonical tuple keys whose presence the
//     transaction observed by inserting or deleting them. First-committer-
//     wins validation intersects those keys against the tuple deltas in
//     the commit log: a concurrent writer of the same relation but
//     disjoint tuples does not invalidate the transaction, and its delta
//     is merged into the committing write set instead of forcing a retry.
//     Reads of ins(R)/del(R) are transaction-local and record no base
//     read.
//
//   - O(delta) working state. Relation instances are persistent tries
//     (package relation over package pmap), so the overlay never pays
//     O(tuples) for a working copy: writes stream into the ins/del
//     differentials, the full working instance is materialized lazily —
//     an O(1) structural clone of the sealed snapshot instance plus
//     O(delta) path copies — only when a statement actually reads the
//     relation's current state, and a write-only transaction materializes
//     nothing at all. The commit point derives each successor sealed
//     instance the same way, from the latest snapshot's trie plus the net
//     delta, so a transaction's storage cost is proportional to what it
//     changed, never to how big the relation is.
//
//   - Probe-granular reads. When the snapshot carries a secondary index
//     (package index) covering an equality selection or the non-delta side
//     of an enforcement join, the overlay answers the expression through
//     index probes (algebra.ProbeEnv) and records only the probed
//     (columns, key) pairs instead of a whole-relation read. The validator
//     projects concurrent deltas onto the probed columns, so a transaction
//     whose alarm check probed parent[k1] is not invalidated by a
//     concurrent writer of parent[k2] — selective enforcement checks no
//     longer drag whole relations into the conflict footprint.
//
// A losing transaction is re-executed from scratch against a fresh
// snapshot — its embedded alarm checks re-run, so a retried commit is
// exactly as safe as a first-attempt one — after a bounded, jittered
// exponential backoff that keeps hot-relation retriers from re-colliding
// in lockstep.
//
// docs/ARCHITECTURE.md at the repository root walks this pipeline end to
// end — overlay read-set recording through epoch validation, fold, WAL
// append and snapshot publication — with pointers back into the code;
// docs/RECOVERY.md covers what the storage layer's write-ahead logging
// makes of a committed epoch after a crash.
package txn
