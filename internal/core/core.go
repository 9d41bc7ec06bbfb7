// Package core implements the paper's primary contribution: the transaction
// modification subsystem. Function ModT (Algorithm 5.1) rewrites an
// arbitrary user transaction into one that cannot violate the integrity of
// the database, by recursively appending the enforcement programs of the
// integrity rules the transaction's statements trigger.
//
// The modification pipeline, per submitted transaction:
//
//  1. debracket (↓): strip the transaction brackets to get the program;
//  2. trigger extraction (GetTrigPX): collect the INS/DEL/UPD triggers the
//     program's statements raise, skipping statements that belong to a
//     non-triggering rule action (Definition 6.2);
//  3. rule selection (SelPS): pick the catalog rules whose trigger sets
//     intersect the raised triggers, in definition order;
//  4. concatenation (ConcatP): append each selected rule's enforcement
//     program — alarm checks for aborting rules, corrective updates for
//     compensating ones — to the program;
//  5. recursion (ModP): the appended statements may raise new triggers, so
//     steps 2-4 repeat on the appendix until a fixpoint, bounded by
//     DefaultMaxDepth as a backstop against cyclic rule sets;
//  6. rebracket (↑): the extended program becomes the transaction that
//     actually executes.
//
// Two operating modes are provided, matching Sections 5 and 6.2:
//
//   - precompiled (default): rules were translated at definition time into
//     integrity programs; modification only selects and concatenates
//     (functions TrigP/SelPS/ConcatP of Algorithm 6.2);
//   - dynamic: rules are optimized and translated at every modification
//     (functions SelRS/TrOptRS of Algorithms 5.2-5.3), kept for the
//     static-vs-dynamic ablation benchmark.
//
// Because the enforcement statements travel inside the transaction, the
// modified program is self-contained: it can execute against any snapshot —
// including a fresh one after an optimistic-concurrency retry — and its
// alarm checks re-validate integrity there, which is what lets the
// concurrent engine (package txn) treat "commits serialize" as "no violated
// state is ever installed". Modification itself only reads the rule
// catalog, so any number of transactions may be modified concurrently as
// long as no rule is being defined or dropped at the same time.
package core
