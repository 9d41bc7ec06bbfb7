// Package index implements immutable secondary indexes over canonical
// attribute keys — the access paths that turn the engine's enforcement
// checks from relation scans into key probes and key intervals.
//
// # Why the engine needs them
//
// The paper's transaction-modification approach stands on cheap enforcement:
// a differential alarm program such as alarm(semijoin(child, del(parent)))
// should cost O(|delta|). Without an access path, the non-delta side of that
// semijoin is a full scan that also enters the transaction's read set as a
// whole-relation read, so the check is slow and its optimistic conflict
// footprint is the entire relation. With an index on child(parent), the
// evaluator probes only the keys the delta names, and the overlay records
// only those probe keys — the residual check against the stored database
// becomes the selective probe that simplification-based integrity checking
// presupposes.
//
// # One key, one tree
//
// An Index is one persistent treap (tree.go) whose entries are (index key,
// tuple), keyed by relation.Tuple.KeyOn over the index columns. That key is
// the engine's one key encoding (value.AppendOrderedKey): the same bytes are
// each tuple's identity in its relation, the probe keys hash joins build,
// and the keys and intervals the commit validator intersects. Its byte order
// is the value order, column by column, so one tree answers both a walk of
// the keys under equal leading columns (Probe) and a [Lo, Hi) walk (Range).
// Tuples that share an index key are ordinary neighbouring entries, so
// there are no buckets to rebuild.
//
//   - Order and identity. Entries sort by index key, then by the low half
//     of a 64-bit hash of the tuple's canonical key, then by
//     relation.Tuple.CompareKey — the sign of comparing the tuples' keys,
//     decided on the values without building a key string per comparison.
//     The last step makes the order total and ties exactly where
//     relation.Tuple.Key ties — Int(1) with Float(1.0), -0.0 with +0.0, a
//     NaN only with the NaN of the same bits — which is the identity the
//     relation trie uses. The high hash half is the heap priority (ties
//     broken by the order), so the tree's shape is a function of the set of
//     tuples it holds, whatever deltas led there.
//   - Cost. Build sorts once, O(n log n), and links the sorted run in O(n).
//     Apply removes and then inserts each delta tuple, copying the O(log n)
//     nodes on its path and sharing everything else with the predecessor:
//     O(delta · log n) time and allocation per commit, whatever n is. The
//     copies are owned by the running Apply, marked in bit 0 of the entry
//     hash (the order ignores the bit), and later tuples of the same delta
//     write them in place. So a commit copies the union of its tuples'
//     paths once: the top of the tree once per commit, and one path for an
//     update that removes t and inserts t' under the same index key. Owned
//     nodes always hang together under the new root, so Apply clears the
//     marks by walking them down from there, allocating nothing, before it
//     returns; a published tree is never written. Probe and Range are one
//     descent and an in-order walk, O(log n + matches).
//   - Memory. A node holds the key string, the tuple header, the hash and
//     two children (64 bytes). Entries with equal index keys share one key
//     string — a new entry adopts its neighbour's — and the canonical key is
//     not stored. Nodes are allocated one at a time, never carved from a
//     slab: a slab lives as long as any node in it, and through its dead
//     nodes would keep every tuple it ever indexed reachable.
//
// # Lifecycle across seal and commit
//
// Indexes follow the storage layer's copy-on-write discipline:
//
//   - An index is immutable. Each committed transaction's net (ins, del)
//     delta derives a successor via Apply; the predecessor is untouched, so
//     any number of successors may be derived from one base
//     (storage.Database.Clone shares snapshots) without seeing each other.
//   - The storage layer derives successor indexes while it seals the
//     committed relation instances and publishes them inside the same
//     atomic Snapshot swap, so any snapshot's indexes exactly describe its
//     sealed instances and readers never lock. Bulk loads and commits
//     recorded without tuple-level deltas fall back to Rebuild.
//
// # One index, one probe
//
// An index is a column list; its order is the sort order. A Set holds one
// index per column list, and its planner (Set.For) serves a predicate with
// the index whose leading columns carry the longest run of equality
// bindings, preferring one whose next column carries a bound. Snapshots
// publish the set in the same atomic swap as the instances it indexes.
//
// The algebra evaluator consults indexes through algebra.ProbeEnv, which
// the transaction overlay implements, with one planning step for every
// operator:
//
//   - select(R, attr = const ∧ ...) and update(R, attr = const ∧ ..., ...)
//     over a base relation probe the index led by the constant-equality
//     columns; a comparison on the next column (<, <=, >, >=, between-style
//     conjunctions, also negated, as enforcement guards arrive) bounds the
//     probe. The candidates are re-verified with the full predicate.
//   - join/semijoin/antijoin probe the indexed side once per driving-side
//     tuple when the other side is a direct base-relation reference with an
//     index led by equi-join columns; an antijoin may only probe its right
//     side (its output needs every left tuple).
//   - An equality on a leading prefix P of the index columns walks the key
//     interval [P, P·0xFF) (Index.Probe). The key encoding is not
//     prefix-free — enc("ab") is a byte prefix of enc("ab\x00c") — but a
//     complete value encoding is never continued by 0xFF, so the interval
//     holds exactly the keys whose leading columns encode to P.
//   - A bound normalizes to half-open key intervals [Lo, Hi) (KeyRange,
//     RangesFor): kind-rank bytes bound missing endpoints, and a trailing
//     0xFF turns inclusive-upper/exclusive-lower bounds into the half-open
//     form, valid over both full index keys and prefix-projected keys.
//
// Each probe records one storage.ProbeRead per probed column list instead
// of a whole-relation read: an equality on columns C records a point (the
// probe key) on C, and a bound on the next column records intervals on C
// plus that column. The commit validator projects concurrent deltas onto
// the probed columns and conflicts only on a tuple whose projection hits a
// point or falls in an interval — so a transaction that probed qty < 10
// merge-commits with a concurrent writer of qty = 500. Probing a prefix or
// a single bound is sound because the recorded dependency is a superset of
// the tuples the expression observed.
//
// Everything else falls back to the scan path and whole-relation read
// recording: no index led by a bound column, a driving side too large
// relative to the indexed side, a predicate that may error on tuples a
// probe would skip (algebra.ProbeSafe), and environments that do not
// implement ProbeEnv (fragment-local checking). Transaction-local
// differentials (ins/del) are never indexed — they are small and carry no
// base-read dependency at all.
package index
