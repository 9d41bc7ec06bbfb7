package lang

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// ParseProgram parses an extended relational algebra program:
//
//	temp := diff(project(beer, brewery), project(brewery, name));
//	insert(brewery, project(temp, #1, null, null));
//	alarm(select(beer, not (alcohol >= 0)));
//	update(accounts, owner = "ann", [balance = balance - 10]);
//	delete(beer, select(beer, alcohol < 0));
//	abort;
//
// Expression forms: select(e, pred), project(e, col [as name], ...),
// join/semijoin/antijoin(e1, e2 [, pred]), union/diff/intersect(e1, e2),
// rename(e, name [, [a, b, ...]]), agg(e, FUNC, col), cnt(e), values[(...),
// ...] (only as insert/delete source), old(R)/ins(R)/del(R), and bare
// relation or temp names. The database schema distinguishes base relations
// from temps and supplies the row type of values literals.
func ParseProgram(src string, db *schema.Database) (algebra.Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog, err := p.parseProgram(db, "")
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseTransaction parses "begin <program> end".
func ParseTransaction(src string, db *schema.Database) (algebra.Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("begin"); err != nil {
		return nil, err
	}
	prog, err := p.parseProgram(db, "end")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return prog, nil
}

// parseProgram reads statements until EOF or the stop keyword.
func (p *parser) parseProgram(db *schema.Database, stop string) (algebra.Program, error) {
	var prog algebra.Program
	for {
		if p.peek().kind == tokEOF {
			return prog, nil
		}
		if stop != "" && p.atKeyword(stop) {
			return prog, nil
		}
		st, err := p.parseStmt(db)
		if err != nil {
			return nil, err
		}
		prog = append(prog, st)
		if !p.acceptPunct(";") {
			return prog, nil
		}
	}
}

func (p *parser) parseStmt(db *schema.Database) (algebra.Stmt, error) {
	switch {
	case p.atKeyword("insert"), p.atKeyword("delete"):
		isInsert := p.atKeyword("insert")
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		rel, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		var src algebra.Expr
		if p.atKeyword("values") {
			rs, err2 := db.MustFind(rel)
			if err2 != nil {
				return nil, err2
			}
			src, err = p.parseValuesLit(rs)
		} else {
			src, err = p.parseExpr(db)
		}
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if isInsert {
			return &algebra.Insert{Rel: rel, Src: src}, nil
		}
		return &algebra.Delete{Rel: rel, Src: src}, nil

	case p.atKeyword("update"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		rel, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		where, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		var sets []algebra.SetClause
		for {
			attr, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			ex, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			sets = append(sets, algebra.SetClause{Attr: attr, Expr: ex})
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &algebra.Update{Rel: rel, Where: where, Sets: sets}, nil

	case p.atKeyword("alarm"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		constraint := "alarm"
		if p.acceptPunct(",") {
			t := p.next()
			if t.kind != tokString {
				return nil, p.errf("expected constraint name string")
			}
			constraint = t.text
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &algebra.Alarm{Expr: e, Constraint: constraint}, nil

	case p.atKeyword("abort"):
		p.next()
		return &algebra.Abort{Constraint: "abort"}, nil

	default:
		// assignment: IDENT := expr
		name, err := p.expectIdent()
		if err != nil {
			return nil, p.errf("expected statement")
		}
		if err := p.expectPunct(":="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		return &algebra.Assign{Temp: name, Expr: e}, nil
	}
}

// parseValuesLit parses values[(c1, c2, ...), ...] against a known schema.
func (p *parser) parseValuesLit(rs *schema.Relation) (algebra.Expr, error) {
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	var rows []relation.Tuple
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row relation.Tuple
		for {
			v, err := p.parseConst()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return algebra.NewLit(rs, rows...), nil
}

func (p *parser) parseConst() (value.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := parseIntText(t.text)
		if err != nil {
			return value.Null(), p.errf("bad integer %q", t.text)
		}
		return value.Int(v), nil
	case tokFloat:
		p.next()
		v, err := parseFloatText(t.text)
		if err != nil {
			return value.Null(), p.errf("bad float %q", t.text)
		}
		return value.Float(v), nil
	case tokString:
		p.next()
		return value.String(t.text), nil
	case tokIdent:
		switch {
		case strings.EqualFold(t.text, "null"):
			p.next()
			return value.Null(), nil
		case strings.EqualFold(t.text, "true"):
			p.next()
			return value.Bool(true), nil
		case strings.EqualFold(t.text, "false"):
			p.next()
			return value.Bool(false), nil
		}
	case tokPunct:
		if t.text == "-" {
			p.next()
			if err := p.enter(); err != nil {
				return value.Null(), err
			}
			defer p.leave()
			v, err := p.parseConst()
			if err != nil {
				return value.Null(), err
			}
			switch v.Kind() {
			case value.KindInt:
				return value.Int(-v.AsInt()), nil
			case value.KindFloat:
				return value.Float(-v.AsFloat()), nil
			}
			return value.Null(), p.errf("cannot negate %s", v.Kind())
		}
	}
	return value.Null(), p.errf("expected constant")
}

// parseExpr parses a relational algebra expression.
func (p *parser) parseExpr(db *schema.Database) (algebra.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errf("expected expression")
	}
	kw := strings.ToLower(t.text)
	if p.lx.tokens[p.pos+1].text != "(" {
		// bare name: base relation or temp
		p.next()
		if _, ok := db.Relation(t.text); ok {
			return algebra.NewRel(t.text), nil
		}
		return algebra.NewTemp(t.text), nil
	}
	switch kw {
	case "old", "ins", "del":
		p.next()
		p.next() // '('
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		aux := map[string]algebra.AuxKind{"old": algebra.AuxOld, "ins": algebra.AuxIns, "del": algebra.AuxDel}[kw]
		return algebra.NewAuxRel(name, aux), nil

	case "select":
		p.next()
		p.next()
		in, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		pred, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return algebra.NewSelect(in, pred), nil

	case "project":
		p.next()
		p.next()
		in, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		var cols []algebra.Scalar
		var names []string
		for p.acceptPunct(",") {
			c, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			name := ""
			if p.acceptKeyword("as") {
				name, err = p.expectIdent()
				if err != nil {
					return nil, err
				}
			}
			cols = append(cols, c)
			names = append(names, name)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return algebra.NewProject(in, cols, names), nil

	case "join", "semijoin", "antijoin":
		p.next()
		p.next()
		l, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		r, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		var pred algebra.Scalar
		if p.acceptPunct(",") {
			pred, err = p.parseScalar()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		switch kw {
		case "join":
			return algebra.NewJoin(l, r, pred), nil
		case "semijoin":
			return algebra.NewSemiJoin(l, r, pred), nil
		default:
			return algebra.NewAntiJoin(l, r, pred), nil
		}

	case "union", "diff", "intersect":
		p.next()
		p.next()
		l, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		r, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		switch kw {
		case "union":
			return algebra.NewUnion(l, r), nil
		case "diff":
			return algebra.NewDiff(l, r), nil
		default:
			return algebra.NewIntersect(l, r), nil
		}

	case "rename":
		p.next()
		p.next()
		in, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var attrs []string
		if p.acceptPunct(",") {
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			for {
				a, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				attrs = append(attrs, a)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return algebra.NewRename(in, name, attrs), nil

	case "agg":
		p.next()
		p.next()
		in, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		fname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		f, ok := algebra.ParseAggFunc(fname)
		if !ok {
			return nil, p.errf("unknown aggregate function %q", fname)
		}
		var col algebra.Scalar
		if f != algebra.AggCnt {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			col, err = p.parseScalar()
			if err != nil {
				return nil, err
			}
		}
		as := ""
		if p.acceptKeyword("as") {
			as, err = p.expectIdent()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return algebra.NewAggregate(in, f, col, as), nil

	case "cnt":
		p.next()
		p.next()
		in, err := p.parseExpr(db)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return algebra.NewCount(in), nil

	default:
		return nil, p.errf("unknown expression form %q", t.text)
	}
}
