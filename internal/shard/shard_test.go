package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		oa, ob := a.Owner(key), b.Owner(key)
		if oa != ob {
			t.Fatalf("ring not deterministic: key %q -> %d vs %d", key, oa, ob)
		}
		if oa < 0 || oa >= 4 {
			t.Fatalf("owner out of range: %d", oa)
		}
		seen[oa] = true
	}
	for n := 0; n < 4; n++ {
		if !seen[n] {
			t.Errorf("node %d owns none of 1000 keys; ring badly unbalanced", n)
		}
	}
}

// Growing the fleet must move keys only onto the new node — the
// consistent-hashing property that keeps a resize from reshuffling (and
// cold-starting) every existing node's cache.
func TestRingGrowthMovesKeysOnlyToNewNode(t *testing.T) {
	r3, r4 := NewRing(3), NewRing(4)
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		o3, o4 := r3.Owner(key), r4.Owner(key)
		if o3 != o4 {
			moved++
			if o4 != 3 {
				t.Fatalf("key %q moved %d -> %d; growth may only move keys to the new node", key, o3, o4)
			}
		}
	}
	if moved == 0 {
		t.Error("no keys moved to the new node; ring is ignoring it")
	}
}

func TestAffinityOwnership(t *testing.T) {
	p := NewPlanner(4, core.Analyze(apps.Toystore(), core.DefaultOptions()))
	exposed := wire.SealedQuery{TemplateID: "Q1", Key: "Q1\x00bear"}
	if got, want := p.NoteQuery(exposed), p.OwnerOfTemplate("Q1"); got != want {
		t.Errorf("exposed query owner %d, template owner %d; template affinity broken", got, want)
	}
	// Blind queries spread by sealed key: same key -> same node, and the
	// template owner is irrelevant (the router cannot see the template).
	blind := wire.SealedQuery{TemplateID: "", Key: "tok-abc"}
	if got := p.NoteQuery(blind); got != p.NoteQuery(blind) {
		t.Error("blind query owner not deterministic")
	}
}

func TestPlannerTargetsMatchAnalysis(t *testing.T) {
	app := apps.NewAuction().App()
	analysis := core.Analyze(app, core.DefaultOptions())
	idx := invalidate.NewRouter(analysis)
	const fleet = 4
	p := NewPlanner(fleet, analysis)

	pruned := 0
	for _, u := range app.Updates {
		su := wire.SealedUpdate{TemplateID: u.ID}
		targets, broadcast := p.Targets(su)
		if broadcast {
			t.Fatalf("%s: known template must not broadcast", u.ID)
		}
		ids, ok := idx.Affected(u.ID)
		if !ok {
			t.Fatalf("%s: missing from invalidation index", u.ID)
		}
		want := make(map[int]bool)
		for _, q := range ids {
			want[p.OwnerOfTemplate(q)] = true
		}
		var wantSorted []int
		for n := range want {
			wantSorted = append(wantSorted, n)
		}
		sort.Ints(wantSorted)
		if fmt.Sprint(targets) != fmt.Sprint(wantSorted) {
			t.Errorf("%s: targets %v, want owners of A>0 templates %v", u.ID, targets, wantSorted)
		}
		if len(targets) < fleet {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("no auction update had a pruned target set; the analysis is buying nothing at the network level")
	}
}

func TestPlannerBlindSeenJoinsEveryPlan(t *testing.T) {
	app := apps.Toystore()
	analysis := core.Analyze(app, core.DefaultOptions())
	p := NewPlanner(4, analysis)

	blind := wire.SealedQuery{TemplateID: "", Key: "blind-token-1"}
	ni := p.NoteQuery(blind)
	for _, u := range app.Updates {
		targets, _ := p.Targets(wire.SealedUpdate{TemplateID: u.ID})
		found := false
		for _, n := range targets {
			if n == ni {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: node %d served blind traffic but is missing from targets %v", u.ID, ni, targets)
		}
	}
}

func TestPlannerUnknownTemplateBroadcasts(t *testing.T) {
	app := apps.Toystore()
	p := NewPlanner(3, core.Analyze(app, core.DefaultOptions()))
	for _, id := range []string{"", "FORGED-TEMPLATE"} {
		targets, broadcast := p.Targets(wire.SealedUpdate{TemplateID: id})
		if !broadcast {
			t.Errorf("template %q: want broadcast fallback", id)
		}
		if len(targets) != 3 {
			t.Errorf("template %q: broadcast targets %v, want all 3 nodes", id, targets)
		}
	}
}

// fakeBackend records the sealed messages it receives and serves
// configurable answers.
type fakeBackend struct {
	mu          sync.Mutex
	queries     []wire.SealedQuery
	updates     []wire.SealedUpdate
	invalidates []wire.SealedUpdate
	invSeqs     []uint64 // the confirmed sequence each invalidation carried

	hit         bool
	affected    int
	invalidated int
	fail        error

	// buckets is a toy bucket store so migration paths are exercisable
	// without a real cache.
	buckets map[string][]wire.BucketEntry
}

func (f *fakeBackend) Query(_ context.Context, sq wire.SealedQuery) (wire.SealedResult, bool, error) {
	f.mu.Lock()
	f.queries = append(f.queries, sq)
	f.mu.Unlock()
	return wire.SealedResult{}, f.hit, f.fail
}

func (f *fakeBackend) Update(_ context.Context, su wire.SealedUpdate) (int, int, uint64, error) {
	f.mu.Lock()
	f.updates = append(f.updates, su)
	seq := uint64(len(f.updates))
	f.mu.Unlock()
	return f.affected, f.invalidated, seq, f.fail
}

func (f *fakeBackend) Invalidate(_ context.Context, su wire.SealedUpdate, seq uint64) (int, error) {
	f.mu.Lock()
	f.invalidates = append(f.invalidates, su)
	f.invSeqs = append(f.invSeqs, seq)
	f.mu.Unlock()
	return f.invalidated, f.fail
}

func (f *fakeBackend) ExportBuckets(_ context.Context, ids []string) ([]wire.BucketEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return nil, f.fail
	}
	var out []wire.BucketEntry
	for _, id := range ids {
		out = append(out, f.buckets[id]...)
	}
	return out, nil
}

func (f *fakeBackend) ImportBuckets(_ context.Context, entries []wire.BucketEntry) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return 0, f.fail
	}
	if f.buckets == nil {
		f.buckets = make(map[string][]wire.BucketEntry)
	}
	for _, e := range entries {
		f.buckets[e.Query.TemplateID] = append(f.buckets[e.Query.TemplateID], e)
	}
	return len(entries), nil
}

func (f *fakeBackend) DropBuckets(_ context.Context, ids []string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, id := range ids {
		n += len(f.buckets[id])
		delete(f.buckets, id)
	}
	return n, nil
}

// routedFixture builds a router over fake backends.
func routedFixture(t *testing.T, fleet int) (*Router, []*fakeBackend, *obs.Registry) {
	t.Helper()
	fakes := make([]*fakeBackend, fleet)
	backends := make([]Backend, fleet)
	for i := range fakes {
		fakes[i] = &fakeBackend{affected: 1, invalidated: 1}
		backends[i] = fakes[i]
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.WallClock())
	return NewRouter(core.Analyze(apps.Toystore(), core.DefaultOptions()), backends, tracer, Options{}), fakes, reg
}

func TestRouterQueryRoutesToOwner(t *testing.T) {
	r, fakes, _ := routedFixture(t, 4)
	owner := r.Planner().OwnerOfTemplate("Q1")
	fakes[owner].hit = true

	sq := wire.SealedQuery{TemplateID: "Q1", Key: "Q1\x00bear", TraceID: "t-q"}
	_, hit, err := r.Query(context.Background(), sq)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("owning node hit, but the routed reply reports a miss")
	}
	for i, f := range fakes {
		want := 0
		if i == owner {
			want = 1
		}
		if got := len(f.queries); got != want {
			t.Errorf("node %d saw %d queries, want %d", i, got, want)
		}
	}
}

func TestRouterUpdateFanOut(t *testing.T) {
	r, fakes, reg := routedFixture(t, 4)
	su := wire.SealedUpdate{TemplateID: "U1", TraceID: "t-u1"}
	exec := r.Planner().ExecNode(su)
	targets, _ := r.Planner().Targets(su)

	_, invalidated, _, err := r.Update(context.Background(), su)
	if err != nil {
		t.Fatal(err)
	}

	touched := map[int]bool{exec: true}
	for _, n := range targets {
		touched[n] = true
	}
	wantInvalidated := len(touched) // each fake reports 1
	if invalidated != wantInvalidated {
		t.Errorf("invalidated %d, want %d (one per touched node)", invalidated, wantInvalidated)
	}
	for i, f := range fakes {
		wantU, wantI := 0, 0
		if i == exec {
			wantU = 1
		} else if touched[i] {
			wantI = 1
		}
		if len(f.updates) != wantU || len(f.invalidates) != wantI {
			t.Errorf("node %d: %d updates / %d invalidates, want %d / %d",
				i, len(f.updates), len(f.invalidates), wantU, wantI)
		}
	}
	if skipped := reg.Counter(obs.MRouterFanoutSkipped).Value(); skipped != int64(4-len(touched)) {
		t.Errorf("fanout_skipped %d, want %d", skipped, 4-len(touched))
	}
	if bc := reg.Counter(obs.MRouterBroadcasts).Value(); bc != 0 {
		t.Errorf("broadcasts %d for a known template, want 0", bc)
	}
}

// The fan-out carries the sequence the exec node's home confirmed — each
// target raises its freshness floor to it — and never goes back to the exec
// node, whose own pathway already invalidated.
func TestRouterFanOutCarriesConfirmedSeq(t *testing.T) {
	r, fakes, _ := routedFixture(t, 4)
	su := wire.SealedUpdate{TemplateID: "FORGED"} // unknown template: every node is a target
	exec := r.Planner().ExecNode(su)
	for want := uint64(1); want <= 3; want++ {
		_, _, seq, err := r.Update(context.Background(), su)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("update %d confirmed at seq %d", want, seq)
		}
	}
	for i, f := range fakes {
		if i == exec {
			if len(f.updates) != 3 || len(f.invalidates) != 0 {
				t.Errorf("exec node %d: %d updates / %d invalidates, want 3 / 0", i, len(f.updates), len(f.invalidates))
			}
			continue
		}
		if got := fmt.Sprint(f.invSeqs); got != "[1 2 3]" {
			t.Errorf("node %d was pushed seqs %s, want [1 2 3]", i, got)
		}
	}
}

// A node down during the fan-out must not stop the batch: surviving
// nodes still get the invalidation, the failure is counted, and the
// update itself still succeeds (it was confirmed before the fan-out).
func TestRouterFanOutSurvivesNodeDown(t *testing.T) {
	r, fakes, reg := routedFixture(t, 4)
	su := wire.SealedUpdate{TemplateID: "U1", TraceID: "t-down"}
	exec := r.Planner().ExecNode(su)
	targets, _ := r.Planner().Targets(su)

	var down int = -1
	for _, n := range targets {
		if n != exec {
			down = n
			break
		}
	}
	if down == -1 {
		t.Skip("fan-out plan has no node besides the exec node at this fleet size")
	}
	fakes[down].fail = errors.New("connection refused")

	_, invalidated, _, err := r.Update(context.Background(), su)
	if err != nil {
		t.Fatalf("update failed outright; a down fan-out target must not fail the update: %v", err)
	}
	for _, n := range targets {
		if n == exec || n == down {
			continue
		}
		if len(fakes[n].invalidates) != 1 {
			t.Errorf("surviving node %d missed the invalidation", n)
		}
	}
	touched := map[int]bool{exec: true}
	for _, n := range targets {
		touched[n] = true
	}
	if want := len(touched) - 1; invalidated != want {
		t.Errorf("invalidated %d, want %d (down node contributes nothing)", invalidated, want)
	}
	if n := reg.Counter(obs.MRouterProxyErrors, obs.L(obs.LKind, obs.KindInvalidate)).Value(); n != 1 {
		t.Errorf("proxy_errors{kind=invalidate} = %d, want 1", n)
	}
}

// A down owning node fails the query after the backend's retry path gives
// up — queries have exactly one home, so there is nothing to fail over
// to.
func TestRouterQueryNodeDown(t *testing.T) {
	r, fakes, reg := routedFixture(t, 4)
	sq := wire.SealedQuery{TemplateID: "Q2", Key: "Q2\x001", TraceID: "t-qd"}
	owner := r.Planner().NoteQuery(sq)
	fakes[owner].fail = errors.New("connection refused")

	if _, _, err := r.Query(context.Background(), sq); err == nil {
		t.Fatal("query to a down owning node must surface the error")
	}
	if n := reg.Counter(obs.MRouterProxyErrors, obs.L(obs.LKind, obs.KindQuery)).Value(); n != 1 {
		t.Errorf("proxy_errors{kind=query} = %d, want 1", n)
	}
}

func TestRouterForgedTemplateBroadcasts(t *testing.T) {
	r, fakes, reg := routedFixture(t, 4)
	su := wire.SealedUpdate{TemplateID: "FORGED", TraceID: "t-forged"}
	exec := r.Planner().ExecNode(su)

	if _, _, _, err := r.Update(context.Background(), su); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if i == exec {
			if len(f.updates) != 1 {
				t.Errorf("exec node %d saw %d updates, want 1", i, len(f.updates))
			}
			continue
		}
		if len(f.invalidates) != 1 {
			t.Errorf("node %d saw %d invalidations; a forged template must reach every node", i, len(f.invalidates))
		}
	}
	if bc := reg.Counter(obs.MRouterBroadcasts).Value(); bc != 1 {
		t.Errorf("broadcasts = %d, want 1", bc)
	}
	if skipped := reg.Counter(obs.MRouterFanoutSkipped).Value(); skipped != 0 {
		t.Errorf("fanout_skipped = %d during a broadcast, want 0", skipped)
	}
}

// Every proxied call lands in dssp_router_node_seconds{node,kind} — through
// a handle cached per (node, kind), which must pick exactly the instrument
// a registry lookup would, for a node that joined after start-up too.
func TestRouterNodeSecondsPerNodeAndKind(t *testing.T) {
	r, _, reg := routedFixture(t, 2)
	ctx := context.Background()
	sq := wire.SealedQuery{TemplateID: "Q1", Key: "Q1\x00bear", TraceID: "t-q"}
	su := wire.SealedUpdate{TemplateID: "U1", TraceID: "t-u"}
	for i := 0; i < 3; i++ {
		if _, _, err := r.Query(ctx, sq); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := r.Update(ctx, su); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Join(ctx, &fakeBackend{}, false)
	if err != nil {
		t.Fatal(err)
	}
	r.observeNode(rep.Node, obs.KindQuery, r.now())

	count := func(node int, kind string) int64 {
		return reg.Histogram(obs.MRouterNodeSeconds, obs.L(obs.LKind, kind), obs.L(obs.LNode, strconv.Itoa(node))).Count()
	}
	owner, exec := r.Planner().OwnerOfTemplate("Q1"), r.Planner().ExecNode(su)
	if got := count(owner, obs.KindQuery); got != 3 {
		t.Errorf("node %d query observations = %d, want 3", owner, got)
	}
	if got := count(exec, obs.KindUpdate); got != 1 {
		t.Errorf("node %d update observations = %d, want 1", exec, got)
	}
	if got := count(rep.Node, obs.KindQuery); got != 1 {
		t.Errorf("joined node %d query observations = %d, want 1", rep.Node, got)
	}
	var total int64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == obs.MRouterNodeSeconds {
			total += m.Count
		}
	}
	targets, _ := r.Planner().Targets(su)
	invalidated := 0
	for _, n := range targets {
		if n != exec {
			invalidated++
		}
	}
	if want := int64(3 + 1 + invalidated + 1); total != want {
		t.Errorf("%s holds %d observations in all, want %d", obs.MRouterNodeSeconds, total, want)
	}
}
