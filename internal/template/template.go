// Package template models the database access templates of a Web
// application — queries or updates missing zero or more parameter values
// (§2.1 of the paper) — together with the classification machinery of §4.1:
// the attribute sets S(U), M(U), S(Q), P(Q), the query classes E (equality
// joins only) and N (no top-k), and the update classes I/D/M (insertion,
// deletion, modification).
//
// It also defines the exposure levels of §2.3 (Figure 5), which control how
// much of a template's information the DSSP may see; everything not exposed
// is encrypted.
package template

import (
	"fmt"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
)

// Kind classifies a template.
type Kind uint8

// Template kinds. KInsert, KDelete, and KModify are the paper's update
// classes I, D, and M.
const (
	KQuery Kind = iota
	KInsert
	KDelete
	KModify
)

func (k Kind) String() string {
	switch k {
	case KQuery:
		return "query"
	case KInsert:
		return "insertion"
	case KDelete:
		return "deletion"
	case KModify:
		return "modification"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsUpdate reports whether the kind is one of the update classes.
func (k Kind) IsUpdate() bool { return k != KQuery }

// Exposure is an information exposure level (Figure 5). Lower exposure
// means more encryption and hence more security; the DSSP can only use
// exposed information for invalidation decisions.
type Exposure uint8

// Exposure levels, in order of increasing exposure. ExpView applies only to
// query templates (it exposes the query statement plus its cached result).
const (
	ExpBlind Exposure = iota
	ExpTemplate
	ExpStmt
	ExpView
)

func (e Exposure) String() string {
	switch e {
	case ExpBlind:
		return "blind"
	case ExpTemplate:
		return "template"
	case ExpStmt:
		return "stmt"
	case ExpView:
		return "view"
	default:
		return fmt.Sprintf("Exposure(%d)", uint8(e))
	}
}

// MaxExposure returns the highest legal exposure for a template kind:
// view for queries, stmt for updates (updates have no cached result).
func MaxExposure(k Kind) Exposure {
	if k.IsUpdate() {
		return ExpStmt
	}
	return ExpView
}

// Template is one database access template of an application, with its
// statically computed classification.
type Template struct {
	ID   string // e.g. "Q1" or "U3"
	Kind Kind
	Stmt sqlparse.Statement
	SQL  string // canonical rendering; the template identity

	NumParams int
	Relations []string // referenced relations, deduplicated

	// Attribute sets of Table 5. Sel is S(·): attributes used in any
	// selection predicate (for queries, also ORDER BY and GROUP BY
	// attributes). Mod is M(U): attributes modified by an update (all
	// attributes of the relation for insertions/deletions). Pres is P(Q):
	// attributes preserved (identifiable per row) in the query result.
	Sel  schema.AttrSet
	Mod  schema.AttrSet
	Pres schema.AttrSet

	// ParamSel is the subset of Sel compared directly against a parameter
	// (or embedded constant) rather than against another column. Only
	// these attributes admit value comparisons during statement
	// inspection, so they drive the B = A test for insertions and
	// modifications, whose statements reveal new attribute values.
	ParamSel schema.AttrSet

	// AggAttrs holds attributes that appear inside aggregate functions.
	// Their per-row values are not preserved, but changes to them can
	// change the result, so they count as result-affecting.
	AggAttrs schema.AttrSet

	// Query class membership (queries only).
	EqJoinsOnly  bool // class E: all column-column predicates use =
	NoTopK       bool // class N: no LIMIT and no aggregation (MAX/MIN behave like top-1, §4.4)
	HasAggregate bool
	HasGroupBy   bool
	CountStar    bool // query contains COUNT(*): its value depends on row existence, not on any one attribute

	// OutAttrs maps result columns to the attributes they preserve, in
	// projection order (with `*` expanded). Aggregate outputs have the zero
	// Attr. OutAggs records the aggregate function per output column. The
	// view-inspection invalidation strategy uses these to evaluate update
	// predicates over cached result rows.
	OutAttrs []schema.Attr
	OutAggs  []sqlparse.AggFunc

	// ViolatesAssumptions marks templates outside the §2.1.1 simplifying
	// assumptions (embedded predicate constants, cartesian products,
	// comparisons between two attributes of the same relation). The
	// analysis falls back to the conservative no-encryption recommendation
	// for pairs involving such templates.
	ViolatesAssumptions bool
}

// New parses, validates, and classifies one template.
func New(id string, sch *schema.Schema, sql string) (*Template, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("template %s: %w", id, err)
	}
	if err := schema.Validate(sch, stmt); err != nil {
		return nil, fmt.Errorf("template %s: %w", id, err)
	}
	t := &Template{
		ID:        id,
		Stmt:      stmt,
		SQL:       stmt.String(),
		NumParams: sqlparse.NumParams(stmt),
		Sel:       schema.NewAttrSet(),
		Mod:       schema.NewAttrSet(),
		Pres:      schema.NewAttrSet(),
		ParamSel:  schema.NewAttrSet(),
		AggAttrs:  schema.NewAttrSet(),
	}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		t.Kind = KQuery
		err = t.classifyQuery(sch, s)
	case *sqlparse.InsertStmt:
		t.Kind = KInsert
		err = t.classifyInsert(sch, s)
	case *sqlparse.DeleteStmt:
		t.Kind = KDelete
		err = t.classifyDelete(sch, s)
	case *sqlparse.UpdateStmt:
		t.Kind = KModify
		err = t.classifyModify(sch, s)
	}
	if err != nil {
		return nil, fmt.Errorf("template %s: %w", id, err)
	}
	return t, nil
}

// MustNew is New for statically known templates; it panics on error.
func MustNew(id string, sch *schema.Schema, sql string) *Template {
	t, err := New(id, sch, sql)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Template) String() string {
	return fmt.Sprintf("%s: %s", t.ID, t.SQL)
}

// addRelation records a referenced relation once.
func (t *Template) addRelation(name string) {
	for _, r := range t.Relations {
		if r == name {
			return
		}
	}
	t.Relations = append(t.Relations, name)
}

// selectionAttrs accumulates predicate attributes into Sel and flags
// assumption violations (embedded constants in comparisons, same-relation
// attribute comparisons).
func (t *Template) selectionAttrs(r *schema.Resolver, where []sqlparse.Predicate) error {
	for _, p := range where {
		var attrs []schema.Attr
		for _, o := range []sqlparse.Operand{p.Left, p.Right} {
			switch o.Kind {
			case sqlparse.OpColumn:
				rc, err := r.Resolve(o.Col)
				if err != nil {
					return err
				}
				t.Sel.Add(rc.Attr)
				attrs = append(attrs, rc.Attr)
			case sqlparse.OpConst:
				// §2.1.1 assumption 2: no constants embedded in templates.
				t.ViolatesAssumptions = true
			}
		}
		if len(attrs) == 1 {
			t.ParamSel.Add(attrs[0]) // column compared to a value
		}
		// §2.3 Property 2 assumption: predicates do not compare two
		// database values of the same relation.
		if len(attrs) == 2 && attrs[0].Table == attrs[1].Table {
			t.ViolatesAssumptions = true
		}
		if p.IsJoin() && p.Op != sqlparse.OpEq {
			t.EqJoinsOnly = false
		}
	}
	return nil
}

func (t *Template) classifyQuery(sch *schema.Schema, s *sqlparse.SelectStmt) error {
	r, err := schema.NewResolver(sch, s.From)
	if err != nil {
		return err
	}
	for _, f := range s.From {
		t.addRelation(f.Table)
	}
	t.EqJoinsOnly = true
	if err := t.selectionAttrs(r, s.Where); err != nil {
		return err
	}
	// ORDER BY and GROUP BY attributes count as selection attributes: they
	// shape the result without being preserved values.
	for _, k := range s.OrderBy {
		rc, err := r.Resolve(k.Col)
		if err == nil { // aggregate-alias keys resolve at execution time only
			t.Sel.Add(rc.Attr)
		}
	}
	for _, g := range s.GroupBy {
		rc, err := r.Resolve(g)
		if err != nil {
			return err
		}
		t.Sel.Add(rc.Attr)
		t.HasGroupBy = true
	}
	for _, e := range s.Select {
		if e.Agg != sqlparse.AggNone {
			t.HasAggregate = true
			if e.Star {
				t.CountStar = true
				t.OutAttrs = append(t.OutAttrs, schema.Attr{})
			} else {
				rc, err := r.Resolve(e.Col)
				if err != nil {
					return err
				}
				t.AggAttrs.Add(rc.Attr)
				t.OutAttrs = append(t.OutAttrs, rc.Attr)
			}
			t.OutAggs = append(t.OutAggs, e.Agg)
			continue
		}
		if e.Star {
			for _, tab := range r.Tables() {
				for _, c := range tab.Columns {
					a := schema.Attr{Table: tab.Name, Column: c.Name}
					t.Pres.Add(a)
					t.OutAttrs = append(t.OutAttrs, a)
					t.OutAggs = append(t.OutAggs, sqlparse.AggNone)
				}
			}
			continue
		}
		rc, err := r.Resolve(e.Col)
		if err != nil {
			return err
		}
		t.Pres.Add(rc.Attr)
		t.OutAttrs = append(t.OutAttrs, rc.Attr)
		t.OutAggs = append(t.OutAggs, sqlparse.AggNone)
	}
	t.NoTopK = s.Limit < 0 && !t.HasAggregate
	// §2.1.1 assumption 3: no cartesian products. A multi-relation query
	// must link its relations through predicates; the conservative check
	// is simply a non-empty selection predicate.
	if len(s.From) > 1 && len(s.Where) == 0 {
		t.ViolatesAssumptions = true
	}
	return nil
}

func (t *Template) classifyInsert(sch *schema.Schema, s *sqlparse.InsertStmt) error {
	t.addRelation(s.Table)
	// M(U) of an insertion is the set of all attributes of the relation.
	for _, c := range sch.Table(s.Table).Columns {
		t.Mod.Add(schema.Attr{Table: s.Table, Column: c.Name})
	}
	for _, v := range s.Values {
		if v.Kind == sqlparse.OpConst {
			t.ViolatesAssumptions = true
		}
	}
	return nil
}

func (t *Template) classifyDelete(sch *schema.Schema, s *sqlparse.DeleteStmt) error {
	t.addRelation(s.Table)
	r, err := schema.NewResolver(sch, []sqlparse.TableRef{{Table: s.Table}})
	if err != nil {
		return err
	}
	t.EqJoinsOnly = true
	if err := t.selectionAttrs(r, s.Where); err != nil {
		return err
	}
	// M(U) of a deletion is the set of all attributes of the relation.
	for _, c := range sch.Table(s.Table).Columns {
		t.Mod.Add(schema.Attr{Table: s.Table, Column: c.Name})
	}
	return nil
}

func (t *Template) classifyModify(sch *schema.Schema, s *sqlparse.UpdateStmt) error {
	t.addRelation(s.Table)
	r, err := schema.NewResolver(sch, []sqlparse.TableRef{{Table: s.Table}})
	if err != nil {
		return err
	}
	t.EqJoinsOnly = true
	if err := t.selectionAttrs(r, s.Where); err != nil {
		return err
	}
	for _, a := range s.Set {
		t.Mod.Add(schema.Attr{Table: s.Table, Column: a.Column})
		if a.Value.Kind == sqlparse.OpConst {
			t.ViolatesAssumptions = true
		}
	}
	return nil
}

// InstanceCount returns how many FROM instances of the relation the
// template has (a self-joining query counts one relation twice). Update
// templates have exactly one instance of their target relation.
func (t *Template) InstanceCount(relation string) int {
	switch s := t.Stmt.(type) {
	case *sqlparse.SelectStmt:
		n := 0
		for _, f := range s.From {
			if f.Table == relation {
				n++
			}
		}
		return n
	default:
		for _, r := range t.Relations {
			if r == relation {
				return 1
			}
		}
		return 0
	}
}

// IgnorableFor implements the G test of §4.1 (after [24]): update template
// u is ignorable with respect to query template q iff no attribute modified
// by u is preserved by q, used in q's selection predicates, or aggregated
// by q. Pairs in G have invalidation probability A = 0 (Lemma 1).
func IgnorableFor(u, q *Template) bool {
	if !u.Kind.IsUpdate() || q.Kind != KQuery {
		return false
	}
	// COUNT(*) depends on row existence in every referenced relation:
	// insertions into and deletions from those relations always affect it,
	// regardless of attribute overlap.
	if q.CountStar && (u.Kind == KInsert || u.Kind == KDelete) {
		for _, qr := range q.Relations {
			for _, ur := range u.Relations {
				if qr == ur {
					return false
				}
			}
		}
	}
	affecting := q.Pres.Union(q.Sel).Union(q.AggAttrs)
	return !u.Mod.Intersects(affecting)
}

// ResultUnhelpfulFor implements the H test of §4.1: query template q is
// result-unhelpful for update template u iff none of u's selection
// attributes are preserved by q. Aggregate queries are conservatively never
// result-unhelpful: their results reveal derived values (e.g. MAX) that can
// aid invalidation, so claiming H could cost scalability.
func ResultUnhelpfulFor(u, q *Template) bool {
	if !u.Kind.IsUpdate() || q.Kind != KQuery {
		return false
	}
	if q.HasAggregate {
		return false
	}
	return !u.Sel.Intersects(q.Pres)
}

// App is the database component of a Web application: a fixed set of query
// templates and a fixed set of update templates over one schema (§2.1).
type App struct {
	Name    string
	Schema  *schema.Schema
	Queries []*Template
	Updates []*Template
}

// IDs maps each of the application's template IDs to itself: the table a
// process that reads statements in place interns their template IDs
// against (wire.Raw.ReadQuery, wire.ReadSealedQuery), so that the strings
// it keeps in its spans, histograms and caches are these, not copies of a
// frame. A new map on every call; its holder only reads it.
func (a *App) IDs() map[string]string {
	ids := make(map[string]string, len(a.Queries)+len(a.Updates))
	for _, t := range a.Queries {
		ids[t.ID] = t.ID
	}
	for _, t := range a.Updates {
		ids[t.ID] = t.ID
	}
	return ids
}

// Query returns the query template with the given ID, or nil.
func (a *App) Query(id string) *Template {
	for _, t := range a.Queries {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Update returns the update template with the given ID, or nil.
func (a *App) Update(id string) *Template {
	for _, t := range a.Updates {
		if t.ID == id {
			return t
		}
	}
	return nil
}
