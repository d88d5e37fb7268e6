// Package invalidate implements the view invalidation strategies of §2.2:
// minimal blind (MBS), minimal template-inspection (MTIS), minimal
// statement-inspection (MSIS), and minimal view-inspection (MVIS)
// strategies, plus the mixed per-pair dispatch of §2.3 (Figure 6).
//
// A strategy is *correct* iff whenever an update changes a query's result,
// the cached result is invalidated. Each strategy here only consults the
// information its class is allowed to see: the blind strategy sees nothing;
// template inspection sees the two templates (and the static analysis over
// them); statement inspection additionally sees bound parameters; view
// inspection additionally sees the cached result. Correctness of all four
// is established by randomized ground-truth property tests.
package invalidate

import (
	"fmt"

	"dssp/internal/core"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// Decision is a strategy outcome: invalidate or do not invalidate.
type Decision uint8

// Decisions.
const (
	DNI Decision = iota // do not invalidate
	Invalidate
)

func (d Decision) String() string {
	if d == Invalidate {
		return "I"
	}
	return "DNI"
}

// Class identifies one of the four strategy classes of §2.2.
type Class uint8

// Strategy classes, ordered by increasing information access.
const (
	Blind Class = iota
	TemplateInspection
	StatementInspection
	ViewInspection
)

func (c Class) String() string {
	switch c {
	case Blind:
		return "MBS"
	case TemplateInspection:
		return "MTIS"
	case StatementInspection:
		return "MSIS"
	case ViewInspection:
		return "MVIS"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// ClassFor maps an exposure-level combination to the dominating strategy
// class (the shaded boxes of Figure 6): any blind level forces the blind
// strategy; any template level forces template inspection; statement
// exposure of both sides enables statement inspection; view exposure of the
// query result additionally enables view inspection.
func ClassFor(eu, eq template.Exposure) Class {
	switch {
	case eu == template.ExpBlind || eq == template.ExpBlind:
		return Blind
	case eu == template.ExpTemplate || eq == template.ExpTemplate:
		return TemplateInspection
	case eq == template.ExpView:
		return ViewInspection
	default:
		return StatementInspection
	}
}

// UpdateInstance is an update as visible to a strategy: the template plus
// (for statement/view inspection) its bound parameters.
type UpdateInstance struct {
	Template *template.Template
	Params   []sqlparse.Value
}

// CachedView is a cached query result as visible to a strategy. Result is
// consulted only by view inspection.
type CachedView struct {
	Template *template.Template
	Params   []sqlparse.Value
	Result   *engine.Result
}

// Invalidator evaluates invalidation decisions for one application, using
// its static analysis for the template-inspection level.
type Invalidator struct {
	app      *template.App
	analysis *core.Analysis
	router   *Router

	// plans holds the compiled plan of every (update template, query
	// template) pair of app (plan.go). It lives on the instance, keyed by
	// template pointer, so two apps with identically named templates never
	// read each other's, and the plans die with the invalidator: every
	// simulation trial builds a fresh App.
	plans map[pairKey]*PairPlan
	// inserts holds app's insertion templates compiled by the engine (nil
	// for one that does not compile), which build a prepared row.
	inserts map[*template.Template]*engine.Update
}

// New builds an Invalidator. The analysis must have been computed over the
// same application.
func New(app *template.App, analysis *core.Analysis) *Invalidator {
	iv := &Invalidator{app: app, analysis: analysis, router: NewRouter(analysis), inserts: map[*template.Template]*engine.Update{}}
	iv.compilePlans()
	for _, u := range app.Updates {
		if _, ok := u.Stmt.(*sqlparse.InsertStmt); ok {
			iv.inserts[u], _ = engine.CompileUpdate(app.Schema, u.Stmt)
		}
	}
	return iv
}

// Router returns the invalidation routing index precomputed from the
// analysis. The cache's OnUpdate fast path visits only the buckets the
// router names.
func (iv *Invalidator) Router() *Router { return iv.router }
