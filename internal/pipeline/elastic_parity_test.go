package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// A warm membership change in the middle of the parity script must be
// invisible in the fleet's final observable state: the union of the
// nodes' cache dumps still equals the single-node dump (migration
// neither loses nor duplicates entries), and the decision logs, merged
// across the fleet, still equal the single-node log as a multiset (the
// handoff recorded no phantom invalidation decisions). This is the
// sharded-adapter parity invariant carried across an epoch flip.
func TestShardedParityAcrossEpochChange(t *testing.T) {
	ref := runDirect(t)

	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedParityToys(t, db)
	home := homeserver.New(db, app, codec)
	homeSrv := httptest.NewServer(httpapi.HomeHandler(home))
	defer homeSrv.Close()
	analysis := core.Analyze(app, core.DefaultOptions())

	var nodes []*dssp.Node
	spawn := func() string {
		n := dssp.NewNode(app, analysis, cache.Options{})
		srv := httptest.NewServer(httpapi.NewNodeServerWithOptions(n, homeSrv.URL, homeSrv.Client(), httpapi.NodeOptions{}).Handler())
		t.Cleanup(srv.Close)
		nodes = append(nodes, n)
		return srv.URL
	}
	urls := []string{spawn(), spawn(), spawn()}
	routerSrv := httptest.NewServer(httpapi.NewRouterServer(analysis, urls, httpapi.RouterOptions{}).Handler())
	defer routerSrv.Close()
	client := httpapi.NewClient(codec, routerSrv.URL, routerSrv.Client())

	ctx := context.Background()
	drive := func(ops []scriptOp) {
		t.Helper()
		for _, op := range ops {
			if op.query {
				if _, err := client.Query(ctx, app.Query(op.template), op.param); err != nil {
					t.Fatalf("%s(%v): %v", op.template, op.param, err)
				}
			} else if _, _, err := client.Update(ctx, app.Update(op.template), op.param); err != nil {
				t.Fatalf("%s(%v): %v", op.template, op.param, err)
			}
		}
	}

	// First half, through the script's update — warm state and recorded
	// decisions exist on the old epoch's owners.
	drive(parityScript[:4])

	warm := true
	body, err := json.Marshal(httpapi.RingJoinRequest{URL: spawn(), Warm: &warm})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := routerSrv.Client().Post(routerSrv.URL+httpapi.PathRingJoin, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("mid-script join: %s", resp.Status)
	}

	// Second half lands on the new epoch: its stores follow the new
	// affinity, possibly onto the just-joined node.
	drive(parityScript[4:])

	var merged []string
	var decisions []cache.Decision
	for _, n := range nodes {
		merged = append(merged, n.Cache.Dump()...)
		decisions = append(decisions, normalize(n.Cache.Decisions())...)
	}
	sort.Strings(merged)
	if !reflect.DeepEqual(merged, ref.dump) {
		t.Errorf("merged dump diverges from single-node across the epoch change:\n got: %v\nwant: %v", merged, ref.dump)
	}

	asMultiset := func(ds []cache.Decision) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = fmt.Sprintf("%+v", d)
		}
		sort.Strings(out)
		return out
	}
	if got, want := asMultiset(decisions), asMultiset(ref.decisions); !reflect.DeepEqual(got, want) {
		t.Errorf("merged decision multiset diverges across the epoch change:\n got: %v\nwant: %v", got, want)
	}
}
