package invalidate

import (
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// The paper's static analysis runs once per template pair, offline (§4);
// statement and view inspection (§2.2) run once per cached entry. A pair
// plan draws the line between them: everything a decision needs that the
// (update template, query template) pair alone fixes — the A = 0 verdict,
// the query's FROM instances over the updated table and their predicates
// grouped by column, where each column sits in the prepared update's
// constraint sets, the shape view inspection reads the result in — is
// compiled once, when the invalidator is built. Deciding one cached entry
// then costs binding its parameters and comparing: the cache's walk
// resolves a bucket's plan once and calls Decide per entry, with no memo,
// map or pool on the way.

// PairPlan is one (update template, query template) pair compiled for
// inspection. It is immutable and safe for concurrent use.
type PairPlan struct {
	// tmpl is the template-inspection decision: DNI iff the analysis
	// proved A = 0, which decides every class above blind.
	tmpl Decision

	// Statement inspection: the update's kind, and the query's FROM
	// instances over the updated table, in FROM order.
	kind  updateKind
	insts []planInst

	// The probe of the query template's index (probe.go): how a prepared
	// update's keys at the template's slot are read, and from where.
	probe   probeKind
	probeAt int

	// View inspection.
	limit int         // the query's LIMIT, -1 when absent
	del   deleteView  // deletions
	ins   insertView  // insertions
	mod   *modifyInfo // modifications
}

type updateKind uint8

const (
	// kindOther: not a statement inspection can read, or a query whose
	// structure did not resolve. Every entry is invalidated.
	kindOther updateKind = iota
	kindInsert
	kindDelete
	kindModify
)

type pairKey struct{ u, q *template.Template }

// compilePlans compiles every pair of the invalidator's application. Pairs
// the analysis proved A = 0 compile to their template decision alone.
func (iv *Invalidator) compilePlans() {
	iv.plans = make(map[pairKey]*PairPlan, len(iv.app.Updates)*len(iv.app.Queries))
	for _, q := range iv.app.Queries {
		qi := buildQueryInfo(iv.app.Schema, q)
		for _, u := range iv.app.Updates {
			iv.plans[pairKey{u, q}] = iv.compile(u, q, qi)
		}
	}
}

// Plan returns the compiled plan of the pair (u, q). The plans of the
// invalidator's own templates were compiled by New; any other pair —
// templates assembled apart from the application, as tests build them —
// is compiled on the spot, which allocates.
func (iv *Invalidator) Plan(u, q *template.Template) *PairPlan {
	if p := iv.plans[pairKey{u, q}]; p != nil {
		return p
	}
	return iv.compile(u, q, buildQueryInfo(iv.app.Schema, q))
}

// compile builds the pair's plan over the query's inspection structure.
// The template decision is the A = 0 table's; a pair the analysis does not
// cover reads as A > 0, the conservative answer.
func (iv *Invalidator) compile(u, q *template.Template, qi *queryInfo) *PairPlan {
	p := &PairPlan{tmpl: Invalidate}
	if iv.router.AZero(u.ID, q.ID) {
		p.tmpl = DNI
		return p
	}
	if qi.evalErr {
		return p
	}
	sch := iv.app.Schema
	p.limit = qi.sel.Limit
	var table string
	var layout [2][]string
	switch s := u.Stmt.(type) {
	case *sqlparse.InsertStmt:
		p.kind, table = kindInsert, s.Table
		p.ins = compileInsertView(sch, qi, q, s)
	case *sqlparse.DeleteStmt:
		p.kind, table = kindDelete, s.Table
		layout = consLayout(s.Where, nil)
		p.del = compileDeleteView(qi, q, s)
	case *sqlparse.UpdateStmt:
		p.kind, table = kindModify, s.Table
		layout = consLayout(s.Where, s.Set)
		p.mod = buildModifyInfo(sch, qi, q, s)
	default:
		return p
	}
	for fi, f := range qi.sel.From {
		if f.Table == table {
			p.insts = append(p.insts, compileInst(sch, qi, fi, table, layout))
		}
	}
	p.compileProbe(SlotOf(q))
	return p
}

// Decide returns the decision of the given strategy class for a prepared
// update of the plan's update template against one cached entry of its
// query template: the entry's bound parameters, and its result when it is
// stored in the clear (view inspection reads it; nil otherwise).
// Information above the class's level is ignored even if present. It
// allocates nothing.
func (p *PairPlan) Decide(class Class, pu *PreparedUpdate, params []sqlparse.Value, res *engine.Result) Decision {
	switch class {
	case Blind:
		return Invalidate
	case TemplateInspection:
		return p.tmpl
	case StatementInspection:
		if p.tmpl == DNI {
			return DNI
		}
		return p.statement(pu, params)
	case ViewInspection:
		if p.tmpl == DNI || p.statement(pu, params) == DNI {
			return DNI
		}
		return p.view(pu, params, res)
	default:
		return Invalidate
	}
}

// consLayout lists the columns of the constraint sets PrepareInto builds
// for a deletion's or modification's WHERE clause (before) and its
// post-image (after), in the order it adds them: each WHERE column once,
// then each SET column the WHERE clause does not bind. The layout is the
// statement's whenever preparation succeeds (consOK), which takes every
// predicate comparing a column with a value; it is not read otherwise.
func consLayout(where []sqlparse.Predicate, set []sqlparse.Assignment) (layout [2][]string) {
	add := func(side int, col string) {
		for _, c := range layout[side] {
			if c == col {
				return
			}
		}
		layout[side] = append(layout[side], col)
	}
	for _, p := range where {
		col := p.Left
		if col.Kind != sqlparse.OpColumn {
			col = p.Right
		}
		add(0, col.Col.Column)
		add(1, col.Col.Column)
	}
	for _, a := range set {
		add(1, a.Column)
	}
	return layout
}
