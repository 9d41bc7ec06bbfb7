// Package pmap implements a persistent hash-array-mapped trie (HAMT) from
// string keys to generic values — the storage representation behind
// relation instances (package relation).
//
// # Why a trie and not a map
//
// The transaction-modification scheme of the paper is differential:
// enforcement programs reason over ins/del deltas so that integrity
// checking costs O(change), not O(database). The storage side has to match,
// or the copy dominates: with map-backed relations, a transaction's first
// write to a relation cloned the whole instance — O(tuples) — and a commit
// rebuilt per-relation state at the same cost. With the trie, a sealed
// instance is cloned in O(1) by sharing its root, each write path-copies
// only the O(log n) nodes between the root and the touched entry, and a
// commit derives the successor instance from the predecessor plus the net
// delta — exactly the O(delta) discipline package index already follows for
// secondary indexes.
//
// # Transients and ownership tokens
//
// Purely persistent tries pay path-copying on every insert, which would
// make bulk loading far slower than filling a Go map. Maps here are
// therefore created mutable ("transient" in the Clojure sense): every node
// created by a mutable map carries its ownership token, and mutations
// update owned nodes in place while path-copying nodes owned by anyone
// else. Freeze drops the token, making the map permanently immutable and
// safe to share across goroutines; Clone hands out a new mutable map
// sharing all structure, simultaneously revoking the receiver's token so
// neither copy can scribble on what is now shared. The result behaves like
// a value (clones never observe each other's writes) at in-place cost for
// the common build-then-seal lifecycle.
//
// Copy-on-write goes one step further, to each half of a node. Path-copying
// a node copies its header only; the copy aliases the original's entry and
// child arrays and marks both shared. The first in-place write to a shared
// array clones that array alone, sized for the write (one longer for an
// insert, one shorter for a removal), and later writes through the same
// owner land in place. So a commit that rewrites one child pointer of the
// 64-way root copies 64 pointers and never the root's entries, and a
// transient that keeps writing one node allocates each of its halves at
// most once. Nodes reachable from a frozen map are never written, so a
// shared array is never modified while anyone can see it.
//
// # Geometry
//
// Nodes branch 64 ways on successive 6-bit fragments of a 64-bit FNV-1a
// hash of the key, so the tree depth is at most ⌈64/6⌉ = 11 and in practice
// ~log64(n). A node keeps its occupied fragments in two disjoint bitmaps,
// as in CHAMP (Steindorfer and Vinju, OOPSLA 2015): a datamap bit holds an
// inline key/value entry and a nodemap bit a subtree, and each kind lives
// in its own array in bitmap-rank order — 40-byte entries for relation
// tuples, 8-byte child pointers. Entries carry no hash memo: the one
// operation that needs an existing entry's hash (pushing two keys a level
// down) recomputes it. Keys whose full hashes collide are kept in an
// unordered collision node of two or more entries below the last level.
//
// The split exists in memory only. Persist hands a sink each node with its
// bitmaps merged (datamap|nodemap) and its slots merged back into bitmap
// order, and NewNode splits them again on decode, so the persisted node
// format does not depend on the in-memory layout.
package pmap
