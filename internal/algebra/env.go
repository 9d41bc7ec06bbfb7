package algebra

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// AuxKind selects which incarnation of a relation a reference denotes: the
// current (possibly transaction-local) state, the pre-transaction state
// ("old", the auxiliary relation of Section 4.1 needed for transition
// constraints), or the differential relations holding the net inserted and
// net deleted tuples of the running transaction.
type AuxKind uint8

// Auxiliary relation kinds.
const (
	AuxCur AuxKind = iota // current state
	AuxOld                // pre-transaction state
	AuxIns                // net inserted tuples (differential)
	AuxDel                // net deleted tuples (differential)
)

// String renders the reference decoration used by the textual syntax.
func (k AuxKind) String() string {
	switch k {
	case AuxCur:
		return ""
	case AuxOld:
		return "old"
	case AuxIns:
		return "ins"
	case AuxDel:
		return "del"
	default:
		return fmt.Sprintf("aux(%d)", uint8(k))
	}
}

// Env provides read access to relation states during expression evaluation.
// The transaction executor implements it over its working overlay.
type Env interface {
	// Rel resolves a base relation in the requested auxiliary incarnation.
	Rel(name string, aux AuxKind) (*relation.Relation, error)
	// Temp resolves a temporary relation created by an assignment statement
	// earlier in the same transaction.
	Temp(name string) (*relation.Relation, error)
}

// ProbeEnv is the optional extension of Env implemented by environments
// backed by secondary indexes (the transaction overlay over an indexed
// snapshot). The evaluator uses it to turn selections, updates and the
// non-delta side of joins into index probes: instead of materializing a base
// relation — a whole-relation read in the environment's read set — it reads
// only the keys and key intervals the expression names, and the environment
// records exactly those, shrinking both the evaluation cost and the
// optimistic conflict footprint.
//
// An index is a column list. It serves an equality on any leading prefix of
// its columns, plus a bound on the next column.
//
// Environments without indexes simply do not implement the interface;
// evaluation falls back to Rel and full scans.
type ProbeEnv interface {
	Env
	// IndexFor picks the index of the named base relation to probe for
	// equality bindings on the columns in eqCols and a bound on boundCol
	// (-1 for none): the longest equality-bound prefix wins, then an index
	// whose next column is boundCol, then the lower signature. It returns
	// the index columns, the length of their equality-bound prefix, and the
	// cardinality of the requested incarnation (for the probe-versus-scan
	// decision). ok is false when the incarnation is not indexed (only the
	// current and pre-transaction states are) or no index serves.
	IndexFor(name string, aux AuxKind, eqCols []int, boundCol int) (idx []int, prefix, size int, ok bool)
	// Probe returns the tuples of the incarnation whose leading idx columns
	// equal vals (idx from IndexFor, vals no longer than its prefix) and,
	// when bound is non-nil, whose idx[len(vals)] column lies within bound.
	// It records a point read of vals on those columns, or an interval read
	// on them plus the bounded one. The returned tuples are shared; callers
	// must not mutate them.
	Probe(name string, aux AuxKind, idx []int, vals []value.Value, bound *RangeBound) ([]relation.Tuple, error)
}

// ExecEnv extends Env with the mutations statements need. Implementations
// must keep differential relations consistent with the mutations.
type ExecEnv interface {
	Env
	// SetTemp binds a temporary relation name for the rest of the program.
	SetTemp(name string, r *relation.Relation) error
	// InsertTuples adds the tuples of src to base relation rel.
	InsertTuples(rel string, src *relation.Relation) error
	// DeleteTuples removes the tuples of src from base relation rel.
	DeleteTuples(rel string, src *relation.Relation) error
}

// TypeEnv is the static counterpart of Env used by TypeCheck: it resolves
// relation names to schemas, tracking temp relations created so far while a
// program is checked statement by statement.
type TypeEnv struct {
	DB    *schema.Database
	Temps map[string]*schema.Relation
}

// NewTypeEnv returns a TypeEnv over the database schema with no temps.
func NewTypeEnv(db *schema.Database) *TypeEnv {
	return &TypeEnv{DB: db, Temps: make(map[string]*schema.Relation)}
}

// RelSchema resolves a base relation schema.
func (e *TypeEnv) RelSchema(name string) (*schema.Relation, error) {
	return e.DB.MustFind(name)
}

// TempSchema resolves a temp relation schema.
func (e *TypeEnv) TempSchema(name string) (*schema.Relation, error) {
	if s, ok := e.Temps[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("algebra: unknown temporary relation %q", name)
}

// SetTemp records the schema of a temp relation for later statements.
func (e *TypeEnv) SetTemp(name string, s *schema.Relation) {
	if e.Temps == nil {
		e.Temps = make(map[string]*schema.Relation)
	}
	e.Temps[name] = s
}

// Clone returns an independent copy so speculative type checks do not leak
// temp bindings.
func (e *TypeEnv) Clone() *TypeEnv {
	c := NewTypeEnv(e.DB)
	for k, v := range e.Temps {
		c.Temps[k] = v
	}
	return c
}
