package invalidate

import (
	"math"
	"math/rand"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// planApps are the applications the plans are held to the reference on:
// the four benchmarks, and richToystore for the strategy paths (top-k,
// MIN/MAX, COUNT(*), range deletions) none of them has, with two updates
// whose WHERE clause can contradict itself on a column the query does not
// constrain — the only way an update's own constraint decides.
func planApps(t testing.TB) []*template.App {
	var out []*template.App
	for _, name := range []string{"toystore", "auction", "bboard", "bookstore"} {
		b, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.App())
	}
	rich := richToystore()
	rich.Updates = append(rich.Updates,
		template.MustNew("U8", rich.Schema, "DELETE FROM toys WHERE qty>=? AND qty<=?"),
		template.MustNew("U9", rich.Schema, "UPDATE toys SET qty=? WHERE toy_id=? AND toy_id=?"),
	)
	return append(out, rich)
}

// collidingValues are drawn for parameters and result cells: values that
// Compare calls equal across kinds (5 and 5.0, -0.0 and 0.0), a NaN, which
// equals only NaN, 2^53 and 2^53+1 as int and float, which the order tells
// apart exactly, NULL, and a few that order around them.
var collidingValues = []sqlparse.Value{
	sqlparse.IntVal(5), sqlparse.FloatVal(5), sqlparse.FloatVal(math.Copysign(0, -1)),
	sqlparse.FloatVal(0), sqlparse.IntVal(0), sqlparse.FloatVal(math.NaN()), sqlparse.Null(),
	sqlparse.IntVal(-3), sqlparse.IntVal(7), sqlparse.FloatVal(6.5), sqlparse.StringVal("5"),
	sqlparse.StringVal("bear"), sqlparse.IntVal(1), sqlparse.IntVal(2),
	sqlparse.IntVal(1 << 53), sqlparse.IntVal(1<<53 + 1), sqlparse.FloatVal(1 << 53), sqlparse.FloatVal(math.Inf(1)),
}

// drawParams draws a parameter list for a template: usually its arity,
// sometimes short of it (an entry or update that binds nothing past the
// end), rarely longer.
func drawParams(rng *rand.Rand, n int) []sqlparse.Value {
	switch rng.Intn(8) {
	case 0:
		n = rng.Intn(n + 1)
	case 1:
		n++
	}
	ps := make([]sqlparse.Value, n)
	for i := range ps {
		ps[i] = collidingValues[rng.Intn(len(collidingValues))]
	}
	return ps
}

// drawResult draws a cached result of the query's width, or none (an entry
// whose result is sealed): up to five rows, so a LIMIT is full or not.
func drawResult(rng *rand.Rand, q *template.Template) *engine.Result {
	if rng.Intn(6) == 0 {
		return nil
	}
	res := &engine.Result{Columns: make([]string, len(q.OutAttrs))}
	for i := rng.Intn(6) * len(q.OutAttrs); i > 0; i-- {
		res.Vals = append(res.Vals, collidingValues[rng.Intn(len(collidingValues))])
	}
	return res
}

// checkPairAgainstReference draws instances of the pair (u, q) from seed
// and fails if the plan's decision differs from the reference's at any
// class.
func checkPairAgainstReference(t *testing.T, iv *Invalidator, ref *reference, u, q *template.Template, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for draw := 0; draw < 32; draw++ {
		pu := iv.Prepare(UpdateInstance{Template: u, Params: drawParams(rng, u.NumParams)})
		view := CachedView{Template: q, Params: drawParams(rng, q.NumParams), Result: drawResult(rng, q)}
		for _, class := range []Class{Blind, TemplateInspection, StatementInspection, ViewInspection} {
			got, want := iv.DecidePrepared(class, pu, view), ref.decide(class, pu, view)
			if got != want {
				t.Fatalf("%s(%v) against %s(%v) with result %v under %v: plan %v, reference %v",
					u.ID, pu.u.Params, q.ID, view.Params, view.Result, class, got, want)
			}
		}
		checkProbeHidesOnlyDNI(t, iv.Plan(u, q), SlotOf(q), pu, view)
	}
}

// checkProbeHidesOnlyDNI fails if the plan's probe leaves out an entry
// that statement or view inspection would invalidate: an entry is left
// out when the probe names keys, the entry has the slot's parameters, and
// its key at the slot is none of them.
func checkProbeHidesOnlyDNI(t *testing.T, p *PairPlan, sl Slot, pu *PreparedUpdate, view CachedView) {
	t.Helper()
	keys, n, ok := p.Probe(pu)
	if !ok || len(view.Params) < sl.Need {
		return
	}
	k := view.Params[sl.Pos].Key()
	for _, pk := range keys[:n] {
		if pk == k {
			return
		}
	}
	for _, class := range []Class{StatementInspection, ViewInspection} {
		if d := p.Decide(class, pu, view.Params, view.Result); d != DNI {
			t.Fatalf("%s(%v) against %s(%v) under %v: the probe names %v, leaving out an entry decided %v",
				pu.u.Template.ID, pu.u.Params, view.Template.ID, view.Params, class, keys[:n], d)
		}
	}
}

// FuzzPairPlanMatchesReference holds every pair plan of every application
// to the per-entry reference path it replaced, on random instances whose
// parameters collide across kinds. The seed corpus is every pair of every
// application once, so a plain go test visits them all.
func FuzzPairPlanMatchesReference(f *testing.F) {
	as := planApps(f)
	ivs := make([]*Invalidator, len(as))
	refs := make([]*reference, len(as))
	for i, app := range as {
		ivs[i] = newInvalidator(app)
		refs[i] = newReference(ivs[i])
		for ui := range app.Updates {
			for qi := range app.Queries {
				f.Add(uint8(i), uint8(ui), uint8(qi), int64(ui*len(app.Queries)+qi))
			}
		}
	}
	f.Fuzz(func(t *testing.T, appIdx, uIdx, qIdx uint8, seed int64) {
		i := int(appIdx) % len(as)
		app := as[i]
		u := app.Updates[int(uIdx)%len(app.Updates)]
		q := app.Queries[int(qIdx)%len(app.Queries)]
		checkPairAgainstReference(t, ivs[i], refs[i], u, q, seed)
	})
}

// TestConsLayoutMatchesPrepare pins the plans' reading of a prepared
// update: for every deletion and modification of every application,
// whenever preparation succeeds, the constraint sets hold the columns
// consLayout names, in its order.
func TestConsLayoutMatchesPrepare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, app := range planApps(t) {
		iv := newInvalidator(app)
		for _, u := range app.Updates {
			var layout [2][]string
			switch s := u.Stmt.(type) {
			case *sqlparse.DeleteStmt:
				layout = consLayout(s.Where, nil)
			case *sqlparse.UpdateStmt:
				layout = consLayout(s.Where, s.Set)
			default:
				continue
			}
			for draw := 0; draw < 20; draw++ {
				pu := iv.Prepare(UpdateInstance{Template: u, Params: drawParams(rng, u.NumParams)})
				if !pu.consOK {
					continue
				}
				for side, cs := range []*consSet{&pu.before, &pu.after} {
					if _, ok := u.Stmt.(*sqlparse.DeleteStmt); ok && side == after {
						continue
					}
					if len(cs.cols) != len(layout[side]) {
						t.Fatalf("%s/%s side %d: prepared %d columns, layout %v", app.Name, u.ID, side, len(cs.cols), layout[side])
					}
					for k, c := range cs.cols {
						if c.col != layout[side][k] {
							t.Fatalf("%s/%s side %d: column %d is %s, layout says %s", app.Name, u.ID, side, k, c.col, layout[side][k])
						}
					}
				}
			}
		}
	}
}
