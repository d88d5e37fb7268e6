package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"testing"

	"dssp/internal/obs"
)

// The text of a trace and a span ID, as every reader has always seen it.
var (
	traceText = regexp.MustCompile(`^[0-9a-f]{8}-[0-9]{6,}$`)
	spanText  = regexp.MustCompile(`^[0-9a-f]{8}-s[0-9]{6,}$`)
)

// getJSON GETs url and decodes its JSON body into v, failing the test on
// anything but 200.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, body)
	}
}

// Trace and span IDs are numbers from client to home, and text only at the
// JSON/HTTP edge: every JSON reader — /v1/traces, /v1/trace/{id}, a node's
// decision log, a stitched trace — must still see string IDs of the form it
// always saw, and a {id} that is no trace ID's text is an unknown trace.
func TestTraceJSONKeepsTextIDs(t *testing.T) {
	f := startToystore(t, Spec{Nodes: 2, Router: true}, nil)
	defer f.Close()
	store := obs.NewSpanStore(0)
	f.Client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock()).SetIdentity(obs.ProcClient, "").SetStore(store)
	ctx := context.Background()
	if _, err := f.Client.Query(ctx, f.spec.App.Query("Q2"), 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Client.Update(ctx, f.spec.App.Update("U1"), 5); err != nil {
		t.Fatal(err)
	}
	ids := store.TraceIDs(2)
	if len(ids) != 2 {
		t.Fatalf("client recorded traces %v, want the query's and the update's", ids)
	}
	query, update := ids[0].String(), ids[1].String()

	fleet := append(append([]string{f.URL}, f.NodeURLs...), f.HomeURLs...)
	for _, base := range fleet {
		var traces struct{ Traces []string }
		getJSON(t, base+PathTraces, &traces)
		for _, id := range traces.Traces {
			if !traceText.MatchString(id) {
				t.Errorf("%s%s lists trace %q", base, PathTraces, id)
			}
		}
		for _, id := range traces.Traces {
			var spans []map[string]any
			getJSON(t, base+PathTrace+id, &spans)
			for _, sp := range spans {
				if sp["trace"] != id || !spanText.MatchString(sp["id"].(string)) {
					t.Errorf("%s%s%s: span %v", base, PathTrace, id, sp)
				}
				if p, ok := sp["parent"]; ok && !spanText.MatchString(p.(string)) {
					t.Errorf("%s%s%s: span %v", base, PathTrace, id, sp)
				}
			}
		}
	}

	var decisions struct {
		Decisions []struct{ Trace string }
	}
	found := false
	for _, base := range f.NodeURLs {
		getJSON(t, base+PathDecisions, &decisions)
		for _, d := range decisions.Decisions {
			found = found || d.Trace == update
			if !traceText.MatchString(d.Trace) {
				t.Errorf("%s%s: decision of trace %q", base, PathDecisions, d.Trace)
			}
		}
	}
	if !found {
		t.Errorf("no node logged a decision under the update's trace %s", update)
	}

	st, err := StitchFleet(nil, fleet, ids[0], store.Trace(ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(st)
	var stitched struct {
		Trace string
		Spans []struct {
			Trace  string `json:"trace"`
			ID     string `json:"id"`
			Parent string `json:"parent"`
			Stage  string `json:"stage"`
		}
	}
	if err := json.Unmarshal(b, &stitched); err != nil {
		t.Fatal(err)
	}
	if stitched.Trace != query || len(stitched.Spans) < 4 {
		t.Fatalf("stitched query trace = %s", b)
	}
	children := 0
	for _, sp := range stitched.Spans {
		if sp.Parent != "" {
			children++
		}
		if sp.Trace != query || !spanText.MatchString(sp.ID) || (sp.Parent != "" && !spanText.MatchString(sp.Parent)) {
			t.Errorf("stitched span %+v", sp)
		}
	}
	if children < 3 {
		t.Errorf("stitched query trace has %d spans under a parent: %s", children, b)
	}

	for _, bad := range []string{"nope", "00000000-000000", ids[0].String() + "0", "%ff", obs.TraceID{Proc: 1, Seq: 1 << 40}.String()} {
		resp, err := http.Get(f.NodeURLs[0] + PathTrace + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s%s: %s, want 404", PathTrace, bad, resp.Status)
		}
	}
}
