// Package core implements the paper's primary contribution: the transaction
// modification subsystem. Function ModT (Algorithm 5.1) rewrites an
// arbitrary user transaction into one that cannot violate the integrity of
// the database, by recursively appending the enforcement programs of the
// integrity rules the transaction's statements trigger.
//
// The modification pipeline, per submitted transaction:
//
//  1. debracket (↓): strip the transaction brackets to get the program;
//  2. trigger extraction (GetTrigP): collect the INS/DEL triggers the
//     user's statements raise (an update raises both);
//  3. rule selection (SelPS): pick the catalog programs whose trigger sets
//     intersect the raised triggers, in definition order;
//  4. concatenation (ConcatP): append each selected rule's enforcement
//     program — alarm checks for aborting rules, a repair before them for
//     repairing ones, corrective updates for compensating ones — to the
//     program;
//  5. recursion (ModP): what a repair or compensating action writes may
//     select rules again. Each integrity program stores, from definition
//     time, the triggers its action raises (GetTrigPX, Definition 6.2, so a
//     non-triggering action raises none), and the next level selects the
//     rules.Selects-successors of the programs the level appended: the
//     edges of the triggering graph (package graph). Steps 4-5 repeat until
//     a level appends no action, bounded by DefaultMaxDepth as a backstop
//     against cyclic rule sets;
//  6. rebracket (↑): the extended program becomes the transaction that
//     actually executes.
//
// Rules were translated at definition time into integrity programs, so
// modification only selects and concatenates (functions TrigP/SelPS/ConcatP
// of Algorithm 6.2). There is one engine; Options choose the form of the
// checks it appends. The default (UseDifferential and Prune) appends the Δ
// checks the safety analyzer cannot prove unnecessary. Two reference
// configurations, which tests compare the default against, append every
// part's full-state check (no option set) or every Δ check unpruned
// (UseDifferential alone).
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
