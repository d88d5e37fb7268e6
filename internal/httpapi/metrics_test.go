package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/obs"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// metricsStack is like stack but also exposes the home server's URL and a
// traced client, so both processes' /v1/metrics can be inspected.
func metricsStack(t *testing.T, exps map[string]template.Exposure) (client *Client, nodeURL, homeURL string, done func()) {
	t.Helper()
	f := startToystore(t, Spec{Nodes: 1}, exps)
	f.Client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock())
	return f.Client, f.NodeURLs[0], f.Topology.Home[0].Primary, func() { f.Close() }
}

// fetchMetrics retrieves a process's /v1/metrics snapshot as JSON.
func fetchMetrics(client *http.Client, baseURL string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := defaultClient(client).Get(baseURL + PathMetrics)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s%s: %s", baseURL, PathMetrics, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// startToystore starts spec's topology over the seeded toystore, so the
// stacks these tests drive are wired by the same assembler the
// experiments use.
func startToystore(t *testing.T, spec Spec, exps map[string]template.Exposure) *Fleet {
	t.Helper()
	spec.App = apps.Toystore()
	spec.Codec = wire.NewCodec(spec.App, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	spec.NewDB = func() (*storage.Database, error) {
		db := storage.NewDatabase(spec.App.Schema)
		seedToys(t, db)
		return db, nil
	}
	f, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricsEndToEnd drives a scripted query/update sequence through the
// HTTP deployment and checks the counters, histograms, and both exposition
// formats of /v1/metrics on the node and the home server.
func TestMetricsEndToEnd(t *testing.T) {
	client, nodeURL, homeURL, done := metricsStack(t, nil)
	defer done()
	app := apps.Toystore()

	// Script: Q2(5) misses, Q2(5) hits, Q1("bear") misses, U1(5) kills the
	// cached Q2(5) entry.
	if r, err := client.Query(context.Background(), app.Query("Q2"), 5); err != nil || r.Outcome.Hit {
		t.Fatalf("first Q2: hit=%v err=%v", r.Outcome.Hit, err)
	}
	if r, err := client.Query(context.Background(), app.Query("Q2"), 5); err != nil || !r.Outcome.Hit {
		t.Fatalf("second Q2: hit=%v err=%v", r.Outcome.Hit, err)
	}
	if r, err := client.Query(context.Background(), app.Query("Q1"), "bear"); err != nil || r.Outcome.Hit {
		t.Fatalf("Q1: hit=%v err=%v", r.Outcome.Hit, err)
	}
	if _, invalidated, err := client.Update(context.Background(), app.Update("U1"), 5); err != nil || invalidated != 1 {
		t.Fatalf("U1: invalidated=%d err=%v", invalidated, err)
	}

	snap, err := fetchMetrics(nil, nodeURL)
	if err != nil {
		t.Fatal(err)
	}

	// Per-template hit/miss counters.
	checks := []struct {
		name   string
		labels map[string]string
		want   int64
	}{
		{obs.MCacheHits, map[string]string{obs.LTemplate: "Q2"}, 1},
		{obs.MCacheMisses, map[string]string{obs.LTemplate: "Q2"}, 1},
		{obs.MCacheMisses, map[string]string{obs.LTemplate: "Q1"}, 1},
		{obs.MCacheStores, nil, 2},
		{obs.MCacheUpdatesSeen, nil, 1},
	}
	// Routing counters: U1 visited the non-empty Q2 bucket (and any other
	// A > 0 bucket with entries); the A = 0 skip counter must be exported
	// even when this workload never skips.
	if m := snap.Find(obs.MCacheBucketsVisited, nil); m == nil || m.Value < 1 {
		t.Errorf("%s = %+v, want >= 1", obs.MCacheBucketsVisited, m)
	}
	if m := snap.Find(obs.MCacheBucketsSkipped, nil); m == nil || m.Value < 0 {
		t.Errorf("%s = %+v, want present", obs.MCacheBucketsSkipped, m)
	}
	for _, c := range checks {
		m := snap.Find(c.name, c.labels)
		if m == nil || m.Value != c.want {
			t.Errorf("%s%v = %+v, want %d", c.name, c.labels, m, c.want)
		}
	}

	// The invalidation-decision counter names both sides of the kill: the
	// update template that fired and the query template whose entries died.
	// The class label depends on the invalidation strategy, so match on the
	// other two labels only.
	var invTotal int64
	found := false
	for _, m := range snap.Metrics {
		if m.Name != obs.MCacheInvalidations {
			continue
		}
		if m.Labels[obs.LTemplate] == "Q2" && m.Labels[obs.LUpdateTemplate] == "U1" {
			found = true
			if m.Labels[obs.LClass] == "" {
				t.Errorf("invalidation metric missing class label: %+v", m)
			}
			invTotal += m.Value
		}
	}
	if !found || invTotal != 1 {
		t.Errorf("invalidations{template=Q2,update_template=U1} total = %d, found=%v", invTotal, found)
	}

	// Per-stage latency histograms exist with the node-side label scheme,
	// and every request produced a request_seconds sample.
	for _, stage := range []string{obs.StageLookup, obs.StageNetwork} {
		m := snap.Find(obs.MStageSeconds, map[string]string{obs.LStage: stage, obs.LTemplate: "Q2"})
		if m == nil || m.Count == 0 {
			t.Errorf("stage histogram %s{Q2} = %+v", stage, m)
			continue
		}
		if len(m.Buckets) != obs.NumBuckets+1 {
			t.Errorf("stage %s bucket count = %d", stage, len(m.Buckets))
		}
	}
	if m := snap.Find(obs.MRequestSeconds, map[string]string{obs.LKind: obs.KindQuery, obs.LTemplate: "Q2"}); m == nil || m.Count != 2 {
		t.Errorf("request histogram = %+v, want count 2", m)
	}

	// The home server's own endpoint reports trusted-side execution.
	homeSnap, err := fetchMetrics(nil, homeURL)
	if err != nil {
		t.Fatal(err)
	}
	if m := homeSnap.Find(obs.MHomeQueries, map[string]string{obs.LTemplate: "Q2"}); m == nil || m.Value != 1 {
		t.Errorf("home queries{Q2} = %+v", m)
	}
	if m := homeSnap.Find(obs.MHomeUpdates, map[string]string{obs.LTemplate: "U1"}); m == nil || m.Value != 1 {
		t.Errorf("home updates{U1} = %+v", m)
	}
	if m := homeSnap.Find(obs.MStageSeconds, map[string]string{obs.LStage: obs.StageHomeExec, obs.LTemplate: "Q2"}); m == nil || m.Count != 1 {
		t.Errorf("home exec histogram{Q2} = %+v", m)
	}

	// The client's tracer captured the trusted-side stages too.
	creg := client.Tracer.Registry().Snapshot()
	if m := creg.Find(obs.MStageSeconds, map[string]string{obs.LStage: obs.StageSeal, obs.LTemplate: "Q2"}); m == nil || m.Count != 2 {
		t.Errorf("client seal histogram = %+v", m)
	}

	checkPrometheus(t, nodeURL)
}

// checkPrometheus fetches the Prometheus exposition and validates its
// structure: TYPE lines, exact counter samples, and cumulative
// non-decreasing histogram buckets ending at the _count value.
func checkPrometheus(t *testing.T, nodeURL string) {
	t.Helper()
	resp, err := http.Get(nodeURL + PathMetrics + "?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		fmt.Sprintf("# TYPE %s counter", obs.MCacheHits),
		fmt.Sprintf("# TYPE %s histogram", obs.MRequestSeconds),
		fmt.Sprintf(`%s{template="Q2"} 1`, obs.MCacheHits),
		fmt.Sprintf(`%s{template="Q2"} 1`, obs.MCacheMisses),
		fmt.Sprintf(`%s{template="Q1"} 1`, obs.MCacheMisses),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// Parse the request_seconds{kind="query",template="Q2"} histogram
	// series: buckets must be cumulative (non-decreasing, le-ordered, +Inf
	// last) and the +Inf bucket must equal _count.
	prefix := obs.MRequestSeconds + `_bucket{kind="query",template="Q2",`
	var bucketVals []int64
	var count int64 = -1
	sawInf := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			parts := strings.Fields(line)
			if len(parts) != 2 {
				t.Fatalf("bad sample line %q", line)
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			bucketVals = append(bucketVals, v)
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
			}
		}
		if strings.HasPrefix(line, obs.MRequestSeconds+`_count{kind="query",template="Q2"}`) {
			parts := strings.Fields(line)
			v, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = v
		}
	}
	if len(bucketVals) != obs.NumBuckets+1 {
		t.Fatalf("got %d bucket samples, want %d", len(bucketVals), obs.NumBuckets+1)
	}
	if !sawInf {
		t.Error("no +Inf bucket emitted")
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Fatalf("buckets not cumulative at %d: %v", i, bucketVals)
		}
	}
	if count != 2 {
		t.Errorf("_count = %d, want 2", count)
	}
	if bucketVals[len(bucketVals)-1] != count {
		t.Errorf("+Inf bucket %d != count %d", bucketVals[len(bucketVals)-1], count)
	}
}
