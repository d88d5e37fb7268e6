package invalidate

import (
	"dssp/internal/core"
	"dssp/internal/template"
)

// Router is the invalidation routing index: the paper's static analysis
// (§4) precomputed into the shape the cache's per-update fast path needs.
// For every update template it lists exactly the query templates with
// A > 0 — the only buckets an invalidation pass has to visit — and it
// tabulates the strategy class of every exposure pair (Figure 6), so the
// hot path pays one slice walk and one array index instead of a pair scan
// and a class dispatch per bucket.
//
// A = 0 pairs need no inspection at all: Property 3 forces A = B = C = 0,
// so every strategy class above blind decides DNI for them, and blind
// pairs never reach a template-keyed bucket (a blind update carries no
// template ID, and blind-query entries live in the hidden bucket). The
// router therefore never changes a decision; it only avoids computing
// decisions whose outcome the analysis already proved.
type Router struct {
	affected map[string][]string        // update ID -> query IDs with A > 0, in app order
	azero    map[string]map[string]bool // update ID -> set of query IDs with A = 0
	classes  [4][4]Class                // [update exposure][query exposure] -> class
}

// NewRouter precomputes the routing index from a static analysis.
func NewRouter(a *core.Analysis) *Router {
	r := &Router{
		affected: make(map[string][]string, len(a.App.Updates)),
		azero:    make(map[string]map[string]bool, len(a.App.Updates)),
	}
	for eu := template.ExpBlind; eu <= template.ExpView; eu++ {
		for eq := template.ExpBlind; eq <= template.ExpView; eq++ {
			r.classes[eu][eq] = ClassFor(eu, eq)
		}
	}
	for i, u := range a.App.Updates {
		var hot []string
		cold := make(map[string]bool)
		for j, q := range a.App.Queries {
			if a.Pairs[i][j].AZero {
				cold[q.ID] = true
			} else {
				hot = append(hot, q.ID)
			}
		}
		r.affected[u.ID] = hot
		r.azero[u.ID] = cold
	}
	return r
}

// Affected returns the query template IDs the update template can affect
// (A > 0), in application order. ok is false for update templates the
// analysis does not cover — callers must fall back to visiting every
// bucket (the conservative pre-routing behaviour).
func (r *Router) Affected(updateID string) (ids []string, ok bool) {
	ids, ok = r.affected[updateID]
	return ids, ok
}

// AZero reports whether the analysis proved A = 0 for the pair. Unknown
// pairs report false (conservative: they must be visited).
func (r *Router) AZero(updateID, queryID string) bool {
	return r.azero[updateID][queryID]
}

// Skipped returns how many query templates the router proves skippable for
// the update template (its A = 0 count), and false for unknown updates.
func (r *Router) Skipped(updateID string) (int, bool) {
	cold, ok := r.azero[updateID]
	return len(cold), ok
}

// Class returns the strategy class for an exposure pair via the
// precomputed Figure 6 table. Out-of-range exposures (corrupt messages)
// fall back to the blind class, which is always correct.
func (r *Router) Class(eu, eq template.Exposure) Class {
	if eu > template.ExpView || eq > template.ExpView {
		return Blind
	}
	return r.classes[eu][eq]
}
