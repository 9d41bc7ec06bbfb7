package schema

import (
	"testing"

	"repro/internal/value"
)

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation(""); err == nil {
		t.Error("empty relation name accepted")
	}
	if _, err := NewRelation("r", Attribute{Name: "", Type: value.KindInt}); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewRelation("r",
		Attribute{Name: "a", Type: value.KindInt},
		Attribute{Name: "a", Type: value.KindString}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	r, err := NewRelation("r", Attribute{Name: "a", Type: value.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 1 {
		t.Errorf("Arity = %d, want 1", r.Arity())
	}
}

func TestAttrIndexAndNames(t *testing.T) {
	r := MustRelation("r",
		Attribute{Name: "a", Type: value.KindInt},
		Attribute{Name: "b", Type: value.KindString},
	)
	if got := r.AttrIndex("b"); got != 1 {
		t.Errorf("AttrIndex(b) = %d, want 1", got)
	}
	if got := r.AttrIndex("z"); got != -1 {
		t.Errorf("AttrIndex(z) = %d, want -1", got)
	}
	names := r.AttrNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("AttrNames = %v", names)
	}
}

func TestCloneIndependentAttrs(t *testing.T) {
	r := MustRelation("r", Attribute{Name: "a", Type: value.KindInt})
	c := r.Clone("c")
	c.Attrs[0].Name = "z"
	if r.Attrs[0].Name != "a" {
		t.Error("Clone shares attribute storage")
	}
	if c.Name != "c" {
		t.Errorf("Clone name = %q", c.Name)
	}
}

func TestSameType(t *testing.T) {
	a := MustRelation("a", Attribute{Name: "x", Type: value.KindInt})
	b := MustRelation("b", Attribute{Name: "y", Type: value.KindFloat})
	c := MustRelation("c", Attribute{Name: "z", Type: value.KindString})
	d := MustRelation("d",
		Attribute{Name: "x", Type: value.KindInt},
		Attribute{Name: "y", Type: value.KindInt})
	n := MustRelation("n", Attribute{Name: "x", Type: value.KindNull})

	if !a.SameType(b) {
		t.Error("int/float columns not union-compatible")
	}
	if a.SameType(c) {
		t.Error("int/string columns union-compatible")
	}
	if a.SameType(d) {
		t.Error("different arities union-compatible")
	}
	if !a.SameType(n) || !c.SameType(n) {
		t.Error("null column should be compatible with anything")
	}
}

func TestTypesCompatible(t *testing.T) {
	cases := []struct {
		a, b value.Kind
		want bool
	}{
		{value.KindInt, value.KindInt, true},
		{value.KindInt, value.KindFloat, true},
		{value.KindFloat, value.KindInt, true},
		{value.KindInt, value.KindString, false},
		{value.KindBool, value.KindString, false},
		{value.KindNull, value.KindString, true},
		{value.KindString, value.KindNull, true},
	}
	for _, c := range cases {
		if got := TypesCompatible(c.a, c.b); got != c.want {
			t.Errorf("TypesCompatible(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelationString(t *testing.T) {
	r := MustRelation("r",
		Attribute{Name: "a", Type: value.KindInt},
		Attribute{Name: "b", Type: value.KindString},
	)
	if got, want := r.String(), "r(a int, b string)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestDatabaseOps(t *testing.T) {
	a := MustRelation("a", Attribute{Name: "x", Type: value.KindInt})
	b := MustRelation("b", Attribute{Name: "y", Type: value.KindInt})
	db, err := NewDatabase(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
	if names := db.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if _, ok := db.Relation("a"); !ok {
		t.Error("Relation(a) not found")
	}
	if _, err := db.MustFind("zzz"); err == nil {
		t.Error("MustFind(zzz) succeeded")
	}
	if err := db.Add(a); err == nil {
		t.Error("duplicate Add succeeded")
	}
}

func TestDatabaseZeroValueAdd(t *testing.T) {
	var db Database
	if err := db.Add(MustRelation("r", Attribute{Name: "x", Type: value.KindInt})); err != nil {
		t.Fatalf("Add on zero-value Database: %v", err)
	}
	if _, ok := db.Relation("r"); !ok {
		t.Error("relation missing after Add")
	}
}
