package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/httpapi"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// TraceRow is one traced request through the real HTTP fleet: what kind
// of request it was and its stitched, fleet-wide span tree.
type TraceRow struct {
	Kind     string // query-miss | query-hit | update
	Template string
	Trace    obs.StitchedTrace
}

// TraceResult is the fleet-wide tracing demonstration: a router fronting
// two DSSP node processes over one home server, with every hop's spans
// stitched back together by trace ID.
type TraceResult struct {
	App  string
	Rows []TraceRow
}

// TraceDemo stands up the full HTTP deployment — router, a two-node
// fleet, home server, all real processes as far as the wire can tell —
// and drives three archetypal requests through it: a cold query (the
// full miss path), the same query again (served from a node's cache),
// and an update (home execution plus invalidation fan-out). Each
// request's spans, scattered across four span stores in four "processes",
// are fetched over the trace API and stitched into one tree.
func TraceDemo(appName string, seed int64) (*TraceResult, error) {
	b, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	spec := benchSpec(b, seed)
	spec.Nodes, spec.Router = 2, true
	f, err := httpapi.Start(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// The trusted client traces its own stages (seal, open) into a local
	// store; everything between lives in the fleet's stores.
	store := obs.NewSpanStore(0)
	cl := f.Client
	cl.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock()).
		SetIdentity(obs.ProcClient, "").
		SetStore(store)

	// Draw real operations from the benchmark's own session generator, so
	// the traced statements are the ones the workload actually issues.
	sess := b.NewSession(rand.New(rand.NewSource(seed + 1)))
	var qop, uop *workload.Op
	for tries := 0; tries < 200 && (qop == nil || uop == nil); tries++ {
		for _, op := range sess.NextPage() {
			op := op
			if op.Template.Kind == template.KQuery && qop == nil {
				qop = &op
			} else if op.Template.Kind != template.KQuery && uop == nil {
				uop = &op
			}
		}
	}
	if qop == nil {
		return nil, fmt.Errorf("trace: %s sessions issued no queries", appName)
	}

	res := &TraceResult{App: appName}
	fleet := append(append([]string{f.URL}, f.NodeURLs...), f.HomeURLs...)
	run := func(kind string, do func() error, tmpl string) error {
		before := len(store.TraceIDs(1 << 20))
		if err := do(); err != nil {
			return fmt.Errorf("trace: %s: %w", kind, err)
		}
		ids := store.TraceIDs(1 << 20)
		if len(ids) <= before {
			return fmt.Errorf("trace: %s: no trace recorded", kind)
		}
		id := ids[len(ids)-1]
		st, err := httpapi.StitchFleet(nil, fleet, id, store.Trace(id))
		if err != nil {
			return fmt.Errorf("trace: %s: %w", kind, err)
		}
		res.Rows = append(res.Rows, TraceRow{Kind: kind, Template: tmpl, Trace: st})
		return nil
	}

	ctx := context.Background()
	query := func() error { _, err := cl.Query(ctx, qop.Template, opArgs(*qop)...); return err }
	if err := run("query-miss", query, qop.Template.ID); err != nil {
		return nil, err
	}
	if err := run("query-hit", query, qop.Template.ID); err != nil {
		return nil, err
	}
	if uop != nil {
		if err := run("update", func() error {
			_, _, err := cl.Update(ctx, uop.Template, opArgs(*uop)...)
			return err
		}, uop.Template.ID); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// opArgs widens a workload op's values into client-call arguments.
func opArgs(op workload.Op) []interface{} {
	args := make([]interface{}, len(op.Params))
	for i, v := range op.Params {
		args[i] = v
	}
	return args
}

// Format renders each request's critical-path breakdown.
func (r *TraceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet-wide traces: %s through router + 2 nodes + home server\n", r.App)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s (%s), trace %s:\n", row.Kind, row.Template, row.Trace.Trace)
		b.WriteString(row.Trace.Format())
	}
	return b.String()
}
