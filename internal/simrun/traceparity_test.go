package simrun_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/obs"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// TestTraceShapeParityWithHTTP checks that the simulator's virtual-time
// traces and the HTTP deployment's wall-clock traces decompose requests
// into the same stage trees: every distinct stitched stage sequence seen
// in one runtime must occur in the other. (Durations differ by
// definition — virtual vs wall time — but the shape an operator debugs
// from is the same.)
func TestTraceShapeParityWithHTTP(t *testing.T) {
	bench := scriptBench{app: apps.Toystore()}
	exps := map[string]template.Exposure{"Q1": template.ExpBlind}

	// Sim side: the bounded span store retains the most recent traces;
	// steady state still cycles misses (each update invalidates), hits,
	// and updates, so every shape stays represented.
	cfg := simrun.DefaultConfig(bench, 1)
	cfg.Exposures = exps
	cfg.Duration = 30 * time.Second
	cfg.ThinkMean = time.Millisecond
	simRes, err := simrun.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.HomeUpdates < 3 {
		t.Fatalf("sim completed %d updates; script did not cycle", simRes.HomeUpdates)
	}
	simShapes := shapeSet(obs.Stitch(simRes.Traces))

	// HTTP side: the same scripted ops through a real node + home server,
	// traces fetched back over the trace API and stitched across the
	// client's, node's, and home's span stores.
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	db := storage.NewDatabase(app.Schema)
	if err := bench.Populate(db, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	home := homeserver.New(db, app, codec)
	homeSrv := httptest.NewServer(httpapi.HomeHandler(home))
	defer homeSrv.Close()
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	ns := httpapi.NewNodeServerWithOptions(node, homeSrv.URL, homeSrv.Client(), httpapi.NodeOptions{})
	nodeSrv := httptest.NewServer(ns.Handler())
	defer nodeSrv.Close()
	client := httpapi.NewClient(codec, nodeSrv.URL, nodeSrv.Client())
	store := obs.NewSpanStore(0)
	client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock()).
		SetIdentity(obs.ProcClient, "").
		SetStore(store)

	session := bench.NewSession(nil)
	for page := 0; page < 6; page++ {
		for _, op := range session.NextPage() {
			params := make([]interface{}, len(op.Params))
			for i, v := range op.Params {
				if v.Kind == sqlparse.KindString {
					params[i] = v.Str
				} else {
					params[i] = v.Int
				}
			}
			if op.Template.Kind == template.KQuery {
				if _, err := client.Query(context.Background(), op.Template, params...); err != nil {
					t.Fatal(err)
				}
			} else if _, _, err := client.Update(context.Background(), op.Template, params...); err != nil {
				t.Fatal(err)
			}
		}
	}

	var httpStitched []obs.StitchedTrace
	for _, id := range store.TraceIDs(1 << 20) {
		st, err := httpapi.StitchFleet(nodeSrv.Client(), []string{nodeSrv.URL, homeSrv.URL}, id, store.Trace(id))
		if err != nil {
			t.Fatal(err)
		}
		httpStitched = append(httpStitched, st)
	}
	httpShapes := shapeSet(httpStitched)

	for shape := range simShapes {
		if !httpShapes[shape] {
			t.Errorf("sim trace shape %q never occurs in the HTTP deployment", shape)
		}
	}
	for shape := range httpShapes {
		if !simShapes[shape] {
			t.Errorf("HTTP trace shape %q never occurs in the simulator", shape)
		}
	}

	// Sanity: the miss path's full decomposition must be among the shapes.
	var miss bool
	for shape := range simShapes {
		if strings.Contains(shape, obs.StageHomeExec) && strings.Contains(shape, obs.StageLookup) {
			miss = true
		}
	}
	if !miss {
		t.Error("no trace shape covers the full miss path (cache_lookup + home_exec)")
	}
}

// shapeSet collapses stitched traces to their distinct stage sequences.
// Traces still in flight when the run ends (the sim cuts off mid-op) are
// recognizable — a completed query records open, a completed update
// records invalidate — and skipped.
func shapeSet(traces []obs.StitchedTrace) map[string]bool {
	out := make(map[string]bool)
	for _, tr := range traces {
		if !tr.HasStage(obs.StageOpen) && !tr.HasStage(obs.StageInvalidate) {
			continue
		}
		out[strings.Join(tr.Stages(), "→")] = true
	}
	return out
}
