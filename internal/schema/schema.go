// Package schema defines relation and database schemas (Definitions 2.1-2.2
// of the paper) and the name-resolution helpers used by the algebra type
// checker and the CL validator.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name string
	Type value.Kind
}

// Relation is a relation schema: a name plus an ordered attribute list
// (Definition 2.1).
type Relation struct {
	Name  string
	Attrs []Attribute
}

// NewRelation builds a relation schema, validating that attribute names are
// non-empty and unique within the relation.
func NewRelation(name string, attrs ...Attribute) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation name must not be empty")
	}
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: relation %s: attribute %d has empty name", name, i+1)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("schema: relation %s: duplicate attribute %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	return &Relation{Name: name, Attrs: attrs}, nil
}

// MustRelation is NewRelation that panics on error; intended for tests and
// static example setup.
func MustRelation(name string, attrs ...Attribute) *Relation {
	r, err := NewRelation(name, attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// AttrIndex resolves an attribute name to its zero-based position, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// AttrNames returns the attribute names in schema order.
func (r *Relation) AttrNames() []string {
	names := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		names[i] = a.Name
	}
	return names
}

// Clone returns a deep copy of the schema with a possibly different name.
func (r *Relation) Clone(name string) *Relation {
	attrs := make([]Attribute, len(r.Attrs))
	copy(attrs, r.Attrs)
	return &Relation{Name: name, Attrs: attrs}
}

// SameType reports whether two schemas are union-compatible: equal arity and
// pairwise compatible attribute types (names may differ). Null-typed columns
// are compatible with anything.
func (r *Relation) SameType(o *Relation) bool {
	if len(r.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range r.Attrs {
		if !TypesCompatible(r.Attrs[i].Type, o.Attrs[i].Type) {
			return false
		}
	}
	return true
}

// TypesCompatible reports whether a value of kind b may appear in a column of
// kind a: identical kinds, int/float promotion, or null on either side.
func TypesCompatible(a, b value.Kind) bool {
	if a == b || a == value.KindNull || b == value.KindNull {
		return true
	}
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return numeric(a) && numeric(b)
}

// String renders the schema as "name(attr type, ...)".
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.Name)
	sb.WriteByte('(')
	for i, a := range r.Attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Name)
		sb.WriteByte(' ')
		sb.WriteString(a.Type.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Database is a database schema: a set of relation schemas (Definition 2.2).
type Database struct {
	rels map[string]*Relation
}

// NewDatabase builds a database schema from the given relation schemas.
func NewDatabase(rels ...*Relation) (*Database, error) {
	db := &Database{rels: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if err := db.Add(r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// MustDatabase is NewDatabase that panics on error.
func MustDatabase(rels ...*Relation) *Database {
	db, err := NewDatabase(rels...)
	if err != nil {
		panic(err)
	}
	return db
}

// Add registers a relation schema; duplicate names are rejected.
func (d *Database) Add(r *Relation) error {
	if d.rels == nil {
		d.rels = make(map[string]*Relation)
	}
	if _, ok := d.rels[r.Name]; ok {
		return fmt.Errorf("schema: duplicate relation %q", r.Name)
	}
	d.rels[r.Name] = r
	return nil
}

// Remove drops a relation schema by name; removing an absent name is a
// no-op.
func (d *Database) Remove(name string) {
	delete(d.rels, name)
}

// Relation looks up a relation schema by name.
func (d *Database) Relation(name string) (*Relation, bool) {
	r, ok := d.rels[name]
	return r, ok
}

// MustFind looks up a relation schema, returning an error naming the missing
// relation when absent.
func (d *Database) MustFind(name string) (*Relation, error) {
	if r, ok := d.rels[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("schema: unknown relation %q", name)
}

// Names returns all relation names in sorted order.
func (d *Database) Names() []string {
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of relation schemas.
func (d *Database) Len() int { return len(d.rels) }
