package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// elasticHTTPFleet is a live toystore deployment: home + node processes
// + router, with handles kept for membership assertions.
type elasticHTTPFleet struct {
	*Fleet
	t   *testing.T
	app *template.App
}

func newElasticHTTPFleet(t *testing.T, fleet int) *elasticHTTPFleet {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	f, err := Start(Spec{
		App: app, Codec: codec, Nodes: fleet, Router: true,
		NewDB: func() (*storage.Database, error) {
			db := storage.NewDatabase(app.Schema)
			for i := int64(1); i <= 8; i++ {
				if err := db.Insert("toys", storage.Row{
					sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprintf("toy-%d", i)), sqlparse.IntVal(i * 10),
				}); err != nil {
					return nil, err
				}
			}
			return db, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &elasticHTTPFleet{Fleet: f, t: t, app: app}
}

// post sends one admin request and returns the status and body.
func (f *elasticHTTPFleet) post(path string, req any) (int, []byte) {
	f.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := f.HTTP.Post(f.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (f *elasticHTTPFleet) ring() RingResponse {
	f.t.Helper()
	resp, err := f.HTTP.Get(f.URL + PathRing)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RingResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		f.t.Fatal(err)
	}
	return rr
}

// TestRingAdminWarmJoinMigratedEntriesHit drives the full elastic story
// over HTTP: warm the fleet, join a third node with a warm handoff, and
// require every previously cached query to still hit — including the
// buckets that migrated to the brand-new node.
func TestRingAdminWarmJoinMigratedEntriesHit(t *testing.T) {
	f := newElasticHTTPFleet(t, 2)
	ctx := context.Background()
	q2 := f.app.Query("Q2")
	for i := int64(1); i <= 8; i++ {
		if _, err := f.Client.Query(ctx, q2, i); err != nil {
			t.Fatal(err)
		}
	}

	warm := true
	status, body := f.post(PathRingJoin, RingJoinRequest{URL: f.AddNode(), Warm: &warm})
	if status != http.StatusOK {
		t.Fatalf("join: %d %s", status, body)
	}
	var rep shard.MigrationReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "join" || rep.Epoch != 1 || rep.Node != 2 {
		t.Fatalf("join report %+v", rep)
	}

	newNodeHitsBefore := f.Nodes[2].Cache.Stats().Hits
	for i := int64(1); i <= 8; i++ {
		res, err := f.Client.Query(ctx, q2, i)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.Hit {
			t.Errorf("Q2(%d) missed after the warm join; handoff lost it", i)
		}
	}
	q2Owner := f.Router.Router.Planner().OwnerOfTemplate("Q2")
	if q2Owner == rep.Node {
		if rep.Entries == 0 {
			t.Error("Q2 moved to the new node but the report streamed no entries")
		}
		if f.Nodes[2].Cache.Stats().Hits == newNodeHitsBefore {
			t.Error("migrated entries never hit on their new owner")
		}
	}

	rr := f.ring()
	if rr.Epoch != 1 || len(rr.Members) != 3 {
		t.Errorf("ring view %+v, want epoch 1 with 3 members", rr)
	}
}

func TestRingAdminDoubleJoinRejected(t *testing.T) {
	f := newElasticHTTPFleet(t, 2)
	url := f.AddNode()
	if status, body := f.post(PathRingJoin, RingJoinRequest{URL: url}); status != http.StatusOK {
		t.Fatalf("first join: %d %s", status, body)
	}
	if status, _ := f.post(PathRingJoin, RingJoinRequest{URL: url}); status != http.StatusConflict {
		t.Fatalf("second join of the same URL: %d, want %d", status, http.StatusConflict)
	}
	// Rejecting the duplicate must not burn an epoch.
	if rr := f.ring(); rr.Epoch != 1 || len(rr.Members) != 3 {
		t.Errorf("ring view %+v after rejected duplicate, want epoch 1 with 3 members", rr)
	}
	// A member URL in the initial fleet is just as much a duplicate.
	if status, _ := f.post(PathRingJoin, RingJoinRequest{URL: f.NodeURLs[0]}); status != http.StatusConflict {
		t.Error("joining an initial member's URL was not rejected")
	}
}

func TestRingAdminLeaveByURLAndUnknowns(t *testing.T) {
	f := newElasticHTTPFleet(t, 3)
	status, body := f.post(PathRingLeave, RingLeaveRequest{URL: f.NodeURLs[1]})
	if status != http.StatusOK {
		t.Fatalf("leave by URL: %d %s", status, body)
	}
	var rep shard.MigrationReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Node != 1 || rep.Kind != "leave" || !rep.Warm {
		t.Fatalf("leave report %+v, want warm leave of node 1", rep)
	}
	if status, _ := f.post(PathRingLeave, RingLeaveRequest{URL: "http://nowhere.invalid"}); status != http.StatusNotFound {
		t.Errorf("leave of unknown URL: %d, want %d", status, http.StatusNotFound)
	}
	node := 99
	if status, _ := f.post(PathRingLeave, RingLeaveRequest{Node: &node}); status != http.StatusNotFound {
		t.Errorf("leave of unknown node ID: %d, want %d", status, http.StatusNotFound)
	}
	node = 1
	if status, _ := f.post(PathRingLeave, RingLeaveRequest{Node: &node}); status != http.StatusNotFound {
		t.Errorf("leave of a node that already left: %d, want %d", status, http.StatusNotFound)
	}
	if status, _ := f.post(PathRingJoin, RingJoinRequest{}); status != http.StatusBadRequest {
		t.Errorf("join with no URL: %d, want %d", status, http.StatusBadRequest)
	}

	// The last node cannot leave: a refusal, not a failed node.
	if status, body := f.post(PathRingLeave, RingLeaveRequest{URL: f.NodeURLs[0]}); status != http.StatusOK {
		t.Fatalf("leave of node 0: %d %s", status, body)
	}
	if status, _ := f.post(PathRingLeave, RingLeaveRequest{URL: f.NodeURLs[2]}); status != http.StatusConflict {
		t.Errorf("leave of the last node: %d, want %d", status, http.StatusConflict)
	}
	if rr := f.ring(); len(rr.Members) != 1 || rr.URLs[f.NodeURLs[2]] != 2 {
		t.Errorf("ring view %+v after the refused leave, want node 2 alone", rr)
	}
}

// The node's bucket endpoints speak the raw migration encoding; a full
// export → import → drop cycle between two node processes must preserve
// the entries exactly.
func TestNodeBucketEndpointsRoundTrip(t *testing.T) {
	f := newElasticHTTPFleet(t, 2)
	ctx := context.Background()
	q2 := f.app.Query("Q2")
	for i := int64(1); i <= 4; i++ {
		if _, err := f.Client.Query(ctx, q2, i); err != nil {
			t.Fatal(err)
		}
	}
	owner := f.Router.Router.Planner().OwnerOfTemplate("Q2")
	src, dst := f.NodeURLs[owner], f.NodeURLs[1-owner]
	hc := f.HTTP

	post := func(url string, body []byte) (int, []byte) {
		resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	status, raw := post(src+PathBucketExport, wire.AppendTemplateIDs(nil, []string{"Q2"}))
	if status != http.StatusOK {
		t.Fatalf("export: %d %s", status, raw)
	}
	entries, err := wire.DecodeBucketEntries(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("exported %d entries, want 4", len(entries))
	}

	status, body := post(dst+PathBucketImport, wire.AppendBucketEntries(nil, entries))
	if status != http.StatusOK {
		t.Fatalf("import: %d %s", status, body)
	}
	var imp BucketImportResponse
	if err := json.Unmarshal(body, &imp); err != nil {
		t.Fatal(err)
	}
	if imp.Imported != 4 {
		t.Errorf("imported %d, want 4", imp.Imported)
	}

	status, body = post(src+PathBucketDrop, wire.AppendTemplateIDs(nil, []string{"Q2"}))
	if status != http.StatusOK {
		t.Fatalf("drop: %d %s", status, body)
	}
	var drop BucketDropResponse
	if err := json.Unmarshal(body, &drop); err != nil {
		t.Fatal(err)
	}
	if drop.Dropped != 4 {
		t.Errorf("dropped %d, want 4", drop.Dropped)
	}
	if got := f.Nodes[owner].Cache.Len(); got != 0 {
		t.Errorf("source cache holds %d entries after the drop", got)
	}
	if got := f.Nodes[1-owner].Cache.Len(); got != 4 {
		t.Errorf("destination cache holds %d entries, want 4", got)
	}

	if status, _ := post(src+PathBucketImport, []byte{0xff, 0xff, 0xff}); status != http.StatusBadRequest {
		t.Errorf("malformed import body: %d, want %d", status, http.StatusBadRequest)
	}
}
