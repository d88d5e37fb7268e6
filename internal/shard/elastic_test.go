package shard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

// movedFraction sums a diff's segment widths as a fraction of the hash
// space.
func movedFraction(segs []Segment) float64 {
	total := 0.0
	for _, s := range segs {
		total += float64(s.Width())
	}
	return total / math.Exp2(64)
}

// A single join must move about 1/(n+1) of the key space and not a key
// more than the variance of 64 virtual points allows — the minimality
// property that makes elasticity cheap. Verified two ways: exactly, by
// the diff's segment widths, and empirically, by sampling keys.
func TestRingJoinMovesMinimalFraction(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		cur, next := NewRing(n), NewRing(n+1)
		segs := cur.Diff(next)
		if len(segs) == 0 {
			t.Fatalf("n=%d: join diff is empty", n)
		}
		ideal := 1 / float64(n+1)
		// 64 virtual points put the new node's share within ~ideal/sqrt(64)
		// of ideal per standard deviation; 4 sigma is a deterministic-safe
		// bound (the rings are fixed, this guards regressions in hashing).
		bound := ideal + 4*ideal/8
		if frac := movedFraction(segs); frac > bound {
			t.Errorf("n=%d: join moves %.4f of the key space, want <= %.4f (~1/%d)", n, frac, bound, n+1)
		}
		for _, s := range segs {
			if s.To != n {
				t.Errorf("n=%d: segment (%d,%d] moves %d -> %d; a join may only move keys to the new node",
					n, s.Lo, s.Hi, s.From, s.To)
			}
		}

		// The diff must characterize ownership change exactly: a key moved
		// if and only if its hash lies in some returned segment.
		const samples = 20000
		moved := 0
		for i := 0; i < samples; i++ {
			key := fmt.Sprintf("sample-key-%d", i)
			h := hash64(key)
			inSeg := false
			for _, s := range segs {
				if s.Contains(h) {
					inSeg = true
					break
				}
			}
			if changed := cur.Owner(key) != next.Owner(key); changed != inSeg {
				t.Fatalf("n=%d: key %q moved=%v but segment membership=%v", n, key, changed, inSeg)
			}
			if inSeg {
				moved++
			}
		}
		if frac, sampled := movedFraction(segs), float64(moved)/samples; math.Abs(frac-sampled) > 0.02 {
			t.Errorf("n=%d: segment widths say %.4f moved, sampling says %.4f", n, frac, sampled)
		}
	}
}

// A leave is the mirror image: only the departed node's keys move.
func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	cur := NewRing(4)
	next := NewRingMembers([]int{0, 1, 3}) // node 2 leaves
	for _, s := range cur.Diff(next) {
		if s.From != 2 {
			t.Errorf("segment (%d,%d] moves %d -> %d; a leave may only move the departed node's keys",
				s.Lo, s.Hi, s.From, s.To)
		}
	}
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("leave-key-%d", i)
		if from, to := cur.Owner(key), next.Owner(key); from != to && from != 2 {
			t.Fatalf("key %q moved %d -> %d though node 2 left", key, from, to)
		}
	}
}

// Owner is on every routed request; it must never touch the allocator.
// scripts/alloc_smoke.sh holds this at exactly 0 allocs/op.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(8)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("tmpl\x00Q%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(keys[i&511])
	}
}

func TestBlindCacheBoundedLRU(t *testing.T) {
	c := NewBlindCache(3)
	live := func(int) bool { return true }
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 0)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", c.Len())
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := c.Lookup(fmt.Sprintf("k%d", i), live); ok {
			t.Errorf("k%d survived past capacity; LRU bound broken", i)
		}
	}
	// Touch k2, insert one more: k3 (now least recent) is the victim.
	if _, _, ok := c.Lookup("k2", live); !ok {
		t.Fatal("k2 missing")
	}
	c.Put("k5", 5, 1)
	if _, _, ok := c.Lookup("k3", live); ok {
		t.Error("k3 survived; recency order ignored")
	}
	if ni, epoch, ok := c.Lookup("k5", live); !ok || ni != 5 || epoch != 1 {
		t.Errorf("k5 -> (%d, %d, %v), want (5, 1, true)", ni, epoch, ok)
	}
}

func TestBlindCacheDropsDeadNodeOnLookup(t *testing.T) {
	c := NewBlindCache(0)
	c.Put("tok", 2, 0)
	dead := func(ni int) bool { return ni != 2 }
	if _, _, ok := c.Lookup("tok", dead); ok {
		t.Fatal("served a pin to a dead node")
	}
	// The stale pin is gone, not just masked: a re-put under the new
	// epoch takes over cleanly.
	c.Put("tok", 0, 1)
	if ni, epoch, ok := c.Lookup("tok", dead); !ok || ni != 0 || epoch != 1 {
		t.Errorf("re-pin -> (%d, %d, %v), want (0, 1, true)", ni, epoch, ok)
	}
}

func TestBlindCacheDropNode(t *testing.T) {
	c := NewBlindCache(0)
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	c.Put("c", 1, 0)
	if n := c.DropNode(1); n != 2 {
		t.Fatalf("DropNode(1) = %d, want 2", n)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after drop, want 1", c.Len())
	}
	if _, _, ok := c.Lookup("b", func(int) bool { return true }); !ok {
		t.Error("unrelated pin b was dropped")
	}
}

// A blind key keeps hitting the node that built its entry across a join:
// the ring owner may change, the warm pin must not.
func TestRouterBlindKeyStickyAcrossJoin(t *testing.T) {
	r, fakes, reg := routedFixture(t, 3)
	sq := wire.SealedQuery{TemplateID: "", Key: "blind-tok-7", TraceID: "t-b1"}
	if _, _, err := r.Query(context.Background(), sq); err != nil {
		t.Fatal(err)
	}
	pinned := -1
	for i, f := range fakes {
		if len(f.queries) == 1 {
			pinned = i
		}
	}
	if pinned == -1 {
		t.Fatal("blind query reached no node")
	}
	if _, err := r.Join(context.Background(), &fakeBackend{}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Query(context.Background(), sq); err != nil {
		t.Fatal(err)
	}
	if got := len(fakes[pinned].queries); got != 2 {
		t.Errorf("pinned node saw %d blind queries after the join, want 2 (pin must survive the epoch flip)", got)
	}
	if hits := reg.Counter(obs.MRouterBlindCacheHits).Value(); hits != 1 {
		t.Errorf("blind cache hits = %d, want 1", hits)
	}
}

// After the pinned node leaves, the cache must never serve the stale
// owner: the next lookup re-routes to a live member.
func TestRouterBlindCacheNeverStaleAfterLeave(t *testing.T) {
	r, fakes, _ := routedFixture(t, 3)
	sq := wire.SealedQuery{TemplateID: "", Key: "blind-tok-9", TraceID: "t-b2"}
	if _, _, err := r.Query(context.Background(), sq); err != nil {
		t.Fatal(err)
	}
	pinned := -1
	for i, f := range fakes {
		if len(f.queries) == 1 {
			pinned = i
		}
	}
	if _, err := r.Leave(context.Background(), pinned, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Query(context.Background(), sq); err != nil {
		t.Fatal(err)
	}
	if got := len(fakes[pinned].queries); got != 1 {
		t.Errorf("departed node saw %d queries, want 1: the blind cache served a stale owner", got)
	}
	served := 0
	for i, f := range fakes {
		if i != pinned {
			served += len(f.queries)
		}
	}
	if served != 1 {
		t.Errorf("surviving nodes saw %d queries, want exactly 1 re-routed", served)
	}
}

// seedBuckets plants per-template sealed entries on each template's
// owning fake, mirroring a warmed fleet.
func seedBuckets(r *Router, fakes map[int]*fakeBackend, perTemplate int) map[string]int {
	owners := make(map[string]int)
	app := r.planner.analysis.App
	for _, q := range app.Queries {
		owner := r.planner.aff.OwnerOfTemplate(q.ID)
		owners[q.ID] = owner
		f := fakes[owner]
		if f.buckets == nil {
			f.buckets = make(map[string][]wire.BucketEntry)
		}
		for i := 0; i < perTemplate; i++ {
			f.buckets[q.ID] = append(f.buckets[q.ID], wire.BucketEntry{
				Query:   wire.SealedQuery{TemplateID: q.ID, Key: fmt.Sprintf("%s\x00%d", q.ID, i)},
				Ordinal: i,
			})
		}
	}
	return owners
}

func TestRouterJoinWarmStreamsMovedBuckets(t *testing.T) {
	r, fakes, reg := routedFixture(t, 2)
	byID := map[int]*fakeBackend{0: fakes[0], 1: fakes[1]}
	const per = 3
	before := seedBuckets(r, byID, per)

	nb := &fakeBackend{}
	rep, err := r.Join(context.Background(), nb, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "join" || !rep.Warm || rep.Epoch != 1 {
		t.Fatalf("report %+v: want kind=join warm epoch=1", rep)
	}
	if rep.Node != 2 {
		t.Fatalf("joined node ID %d, want 2 (never reused, next after 0..1)", rep.Node)
	}

	moved := 0
	for id, was := range before {
		now := r.Planner().Affinity().OwnerOfTemplate(id)
		if now == was {
			if len(nb.buckets[id]) != 0 {
				t.Errorf("%s did not move but its entries reached the new node", id)
			}
			if len(byID[was].buckets[id]) != per {
				t.Errorf("%s did not move but its old owner lost entries", id)
			}
			continue
		}
		moved++
		if now != rep.Node {
			t.Errorf("%s moved %d -> %d; a join may only move buckets to the new node", id, was, now)
		}
		if got := len(nb.buckets[id]); got != per {
			t.Errorf("%s: new owner holds %d entries, want %d", id, got, per)
		}
		if got := len(byID[was].buckets[id]); got != 0 {
			t.Errorf("%s: old owner still holds %d entries after the drop", id, got)
		}
	}
	if moved == 0 {
		t.Fatal("no template moved to the new node; nothing was tested")
	}
	if rep.Moved != moved || rep.Entries != moved*per {
		t.Errorf("report moved=%d entries=%d, want %d / %d", rep.Moved, rep.Entries, moved, moved*per)
	}
	if n := reg.Counter(obs.MRouterMigratedEntries).Value(); n != int64(moved*per) {
		t.Errorf("migrated-entries counter = %d, want %d", n, moved*per)
	}
	if n := reg.Counter(obs.MRouterMigrations, obs.L(obs.LKind, "join")).Value(); n != 1 {
		t.Errorf("migrations{kind=join} = %d, want 1", n)
	}
}

func TestRouterLeaveWarmDrainsToSurvivors(t *testing.T) {
	r, fakes, _ := routedFixture(t, 3)
	byID := map[int]*fakeBackend{0: fakes[0], 1: fakes[1], 2: fakes[2]}
	const per = 2
	before := seedBuckets(r, byID, per)

	rep, err := r.Leave(context.Background(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "leave" || !rep.Warm {
		t.Fatalf("report %+v: want kind=leave warm", rep)
	}
	for id, was := range before {
		if was != 1 {
			continue
		}
		now := r.Planner().Affinity().OwnerOfTemplate(id)
		if now == 1 {
			t.Fatalf("%s still owned by the departed node", id)
		}
		if got := len(byID[now].buckets[id]); got != per {
			t.Errorf("%s: survivor %d holds %d entries, want %d", id, now, got, per)
		}
	}
	if got := fmt.Sprint(r.Members()); got != "[0 2]" {
		t.Errorf("members after leave = %s, want [0 2]", got)
	}
}

func TestRouterLeaveLastNodeRejected(t *testing.T) {
	r, _, _ := routedFixture(t, 1)
	if _, err := r.Leave(context.Background(), 0, false); err == nil {
		t.Fatal("removing the last node must fail")
	}
	if _, err := r.Leave(context.Background(), 7, false); err == nil {
		t.Fatal("removing a non-member must fail")
	}
}

// stagedBackend is a fakeBackend whose Update can be held at a gate and
// whose invalidation counts are read off the update itself (its first
// opaque byte n: n from Update, 10n from Invalidate), so updates in flight
// together can be told apart by what comes back.
type stagedBackend struct {
	fakeBackend
	entered chan struct{} // nil: no gate; else one send per Update before it waits
	release chan struct{} // closed to let held Updates answer
}

func stagedCount(su wire.SealedUpdate) int {
	if len(su.Opaque) == 0 {
		return 1
	}
	return int(su.Opaque[0])
}

func (b *stagedBackend) Update(ctx context.Context, su wire.SealedUpdate) (int, int, uint64, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
		<-b.release
	}
	affected, _, seq, err := b.fakeBackend.Update(ctx, su)
	return affected, stagedCount(su), seq, err
}

func (b *stagedBackend) Invalidate(ctx context.Context, su wire.SealedUpdate, seq uint64) (int, error) {
	_, err := b.fakeBackend.Invalidate(ctx, su, seq)
	return 10 * stagedCount(su), err
}

// stagedFixture is a fleet of stagedBackends in which the node that
// executes su holds its Updates at the gate.
func stagedFixture(fleet int, su wire.SealedUpdate) (*Router, []*stagedBackend, int) {
	planner := NewPlanner(NewAffinity(fleet), core.Analyze(apps.Toystore(), core.DefaultOptions()))
	exec := planner.ExecNode(su)
	staged := make([]*stagedBackend, fleet)
	backends := make([]Backend, fleet)
	for i := range staged {
		staged[i] = &stagedBackend{}
		backends[i] = staged[i]
	}
	staged[exec].entered, staged[exec].release = make(chan struct{}, fleet), make(chan struct{})
	return NewRouter(planner, backends, obs.NewTracer(obs.NewRegistry(), obs.WallClock()), Options{}), staged, exec
}

// Two updates in flight at once under one trace ID (clients that predate
// tracing all send the empty one) each get back their own exec-node count
// plus their own fan-out, not the other's.
func TestRouterConcurrentUpdatesSameTraceID(t *testing.T) {
	const fleet = 3
	su := wire.SealedUpdate{TemplateID: "FORGED"} // unknown template: fans out to every other node
	r, staged, exec := stagedFixture(fleet, su)

	type outcome struct {
		n, invalidated int
		err            error
	}
	out := make(chan outcome, 2)
	for _, n := range []byte{3, 5} {
		u := su
		u.Opaque = []byte{n}
		go func() {
			_, invalidated, _, err := r.Update(context.Background(), u)
			out <- outcome{int(u.Opaque[0]), invalidated, err}
		}()
	}
	<-staged[exec].entered
	<-staged[exec].entered // both are past routing and held at the exec node
	close(staged[exec].release)
	for i := 0; i < 2; i++ {
		o := <-out
		if o.err != nil {
			t.Fatal(o.err)
		}
		if want := o.n + (fleet-1)*10*o.n; o.invalidated != want {
			t.Errorf("update %d: invalidated %d, want %d (its own exec count plus its own %d pushes)", o.n, o.invalidated, want, fleet-1)
		}
	}
}

// The exec node leaving while its Update is in flight must not lose the
// update: the exec node's own count still comes back, and every survivor
// the plan names gets exactly one push.
func TestRouterLeaveDuringUpdate(t *testing.T) {
	su := wire.SealedUpdate{TemplateID: "U1", TraceID: "t-mid"}
	r, staged, exec := stagedFixture(3, su)

	type outcome struct {
		invalidated int
		err         error
	}
	out := make(chan outcome, 1)
	go func() {
		_, invalidated, _, err := r.Update(context.Background(), su)
		out <- outcome{invalidated, err}
	}()
	<-staged[exec].entered
	if _, err := r.Leave(context.Background(), exec, false); err != nil {
		t.Fatal(err)
	}
	close(staged[exec].release)
	o := <-out
	if o.err != nil {
		t.Fatal(o.err)
	}

	targets, _ := r.Planner().Targets(su)
	survivors := 0
	for _, ni := range targets {
		if ni == exec {
			continue
		}
		survivors++
		if got := len(staged[ni].invalidates); got != 1 {
			t.Errorf("survivor %d saw %d invalidations, want 1", ni, got)
		}
	}
	if survivors == 0 {
		t.Fatal("no survivor is a fan-out target: the test exercises nothing")
	}
	if got := len(staged[exec].invalidates); got != 0 {
		t.Errorf("departed exec node saw %d invalidations, want 0", got)
	}
	if want := 1 + 10*survivors; o.invalidated != want {
		t.Errorf("invalidated %d, want %d (the exec node's 1 plus 10 per survivor)", o.invalidated, want)
	}
}

// Membership churn under live fan-out and query traffic: exercised with
// -race, the invariant is simply no data race, no deadlock, and a sane
// final member set.
func TestRouterMembershipChurnUnderTraffic(t *testing.T) {
	app := apps.Toystore()
	planner := NewPlanner(NewAffinity(2), core.Analyze(app, core.DefaultOptions()))
	fakes := []*fakeBackend{{invalidated: 1}, {invalidated: 1}}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.WallClock())
	r := NewRouter(planner, []Backend{fakes[0], fakes[1]}, tracer, Options{RetryBackoff: time.Millisecond})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sq := wire.SealedQuery{TemplateID: "Q2", Key: fmt.Sprintf("Q2\x00%d", i%7), TraceID: fmt.Sprintf("t-%d-%d", w, i)}
				_, _, _ = r.Query(context.Background(), sq) // errors during churn are expected
				su := wire.SealedUpdate{TemplateID: "U1", TraceID: fmt.Sprintf("u-%d-%d", w, i)}
				_, _, _, _ = r.Update(context.Background(), su)
			}
		}(w)
	}

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		rep, err := r.Join(ctx, &fakeBackend{invalidated: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := r.Leave(ctx, rep.Node, i%4 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if got := fmt.Sprint(r.Members()); got != "[0 1 3]" {
		t.Errorf("final members %s, want [0 1 3] (joined 2,3,4; left 2,4)", got)
	}
	if r.Epoch() != 5 {
		t.Errorf("epoch %d after 5 membership changes, want 5", r.Epoch())
	}
}

// flakyBackend fails its first nFail queries, then behaves.
type flakyBackend struct {
	fakeBackend
	mu2   sync.Mutex
	nFail int
}

func (f *flakyBackend) Query(ctx context.Context, sq wire.SealedQuery) (wire.SealedResult, bool, error) {
	f.mu2.Lock()
	if f.nFail > 0 {
		f.nFail--
		f.mu2.Unlock()
		return wire.SealedResult{}, false, fmt.Errorf("transient: connection reset")
	}
	f.mu2.Unlock()
	return f.fakeBackend.Query(ctx, sq)
}

// A transient query failure is absorbed by the single retry: the caller
// sees success, the retry counter ticks, and no proxy error is recorded.
func TestRouterQueryRetryAbsorbsTransientFailure(t *testing.T) {
	app := apps.Toystore()
	planner := NewPlanner(NewAffinity(2), core.Analyze(app, core.DefaultOptions()))
	sq := wire.SealedQuery{TemplateID: "Q2", Key: "Q2\x003", TraceID: "t-flaky"}
	owner := planner.Affinity().OwnerOfQuery(sq)
	flaky := &flakyBackend{nFail: 1}
	flaky.hit = true
	backends := []Backend{&fakeBackend{}, &fakeBackend{}}
	backends[owner] = flaky
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.WallClock())
	r := NewRouter(planner, backends, tracer, Options{RetryBackoff: time.Millisecond})

	_, hit, err := r.Query(context.Background(), sq)
	if err != nil {
		t.Fatalf("transient failure leaked through the retry: %v", err)
	}
	if !hit {
		t.Error("retried query lost the owning node's hit")
	}
	if n := reg.Counter(obs.MRouterQueryRetries).Value(); n != 1 {
		t.Errorf("%s = %d, want 1", obs.MRouterQueryRetries, n)
	}
	if n := reg.Counter(obs.MRouterProxyErrors, obs.L(obs.LKind, obs.KindQuery)).Value(); n != 0 {
		t.Errorf("proxy_errors{kind=query} = %d for a recovered query, want 0", n)
	}
}
