package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

// A single join must move about 1/(n+1) of the key space and not a key
// more than the variance of 64 virtual points allows — the minimality
// property that makes elasticity cheap — and every key it moves must move
// to the new node. Measured by sampling keys through Owner.
func TestRingJoinMovesMinimalFraction(t *testing.T) {
	const samples = 20000
	for _, n := range []int{2, 3, 4, 8} {
		cur, next := NewRing(n), NewRing(n+1)
		moved := 0
		for i := 0; i < samples; i++ {
			key := fmt.Sprintf("sample-key-%d", i)
			from, to := cur.Owner(key), next.Owner(key)
			if from == to {
				continue
			}
			moved++
			if to != n {
				t.Fatalf("n=%d: key %q moved %d -> %d; a join may only move keys to the new node", n, key, from, to)
			}
		}
		if moved == 0 {
			t.Fatalf("n=%d: the join moved no key", n)
		}
		ideal := 1 / float64(n+1)
		// 64 virtual points put the new node's share within ~ideal/sqrt(64)
		// of ideal per standard deviation; 4 sigma is a deterministic-safe
		// bound (the rings and the keys are fixed, this guards regressions
		// in hashing).
		bound := ideal + 4*ideal/8
		if frac := float64(moved) / samples; frac > bound {
			t.Errorf("n=%d: join moves %.4f of the key space, want <= %.4f (~1/%d)", n, frac, bound, n+1)
		}
	}
}

// A leave is the mirror image: only the departed node's keys move.
func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	cur := NewRing(4)
	next := NewRingMembers([]int{0, 1, 3}) // node 2 leaves
	moved := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("leave-key-%d", i)
		from, to := cur.Owner(key), next.Owner(key)
		if from == to {
			continue
		}
		moved++
		if from != 2 {
			t.Fatalf("key %q moved %d -> %d though node 2 left", key, from, to)
		}
	}
	if moved == 0 {
		t.Fatal("the leave moved no key; node 2 owned nothing")
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
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", c.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Lookup(fmt.Sprintf("k%d", i), live); ok {
			t.Errorf("k%d survived past capacity; LRU bound broken", i)
		}
	}
	// Touch k2, insert one more: k3 (now least recent) is the victim.
	if _, ok := c.Lookup("k2", live); !ok {
		t.Fatal("k2 missing")
	}
	c.Put("k5", 5)
	if _, ok := c.Lookup("k3", live); ok {
		t.Error("k3 survived; recency order ignored")
	}
	if ni, ok := c.Lookup("k5", live); !ok || ni != 5 {
		t.Errorf("k5 -> (%d, %v), want (5, true)", ni, ok)
	}
}

func TestBlindCacheDropsDeadNodeOnLookup(t *testing.T) {
	c := NewBlindCache(blindCacheSize)
	c.Put("tok", 2)
	dead := func(ni int) bool { return ni != 2 }
	if _, ok := c.Lookup("tok", dead); ok {
		t.Fatal("served a pin to a dead node")
	}
	// The stale pin is gone, not just masked: a re-put to a live node
	// takes over cleanly.
	c.Put("tok", 0)
	if ni, ok := c.Lookup("tok", dead); !ok || ni != 0 {
		t.Errorf("re-pin -> (%d, %v), want (0, true)", ni, ok)
	}
}

func TestBlindCacheDropNode(t *testing.T) {
	c := NewBlindCache(blindCacheSize)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 1)
	if n := c.DropNode(1); n != 2 {
		t.Fatalf("DropNode(1) = %d, want 2", n)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after drop, want 1", c.Len())
	}
	if _, ok := c.Lookup("b", func(int) bool { return true }); !ok {
		t.Error("unrelated pin b was dropped")
	}
}

// A blind key keeps hitting the node that built its entry across a join:
// the ring owner may change, the warm pin must not.
func TestRouterBlindKeyStickyAcrossJoin(t *testing.T) {
	r, fakes, reg := routedFixture(t, 3)
	sq := wire.SealedQuery{TemplateID: "", Key: "blind-tok-7", TraceID: obs.NewTraceID()}
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
	sq := wire.SealedQuery{TemplateID: "", Key: "blind-tok-9", TraceID: obs.NewTraceID()}
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
		owner := r.planner.OwnerOfTemplate(q.ID)
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
		now := r.Planner().OwnerOfTemplate(id)
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
		now := r.Planner().OwnerOfTemplate(id)
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
	if _, err := r.Leave(context.Background(), 0, false); !errors.Is(err, ErrLastNode) {
		t.Fatalf("removing the last node: %v, want ErrLastNode", err)
	}
	if _, err := r.Leave(context.Background(), 7, false); !errors.Is(err, ErrNotMember) {
		t.Fatalf("removing a non-member: %v, want ErrNotMember", err)
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
	staged := make([]*stagedBackend, fleet)
	backends := make([]Backend, fleet)
	for i := range staged {
		staged[i] = &stagedBackend{}
		backends[i] = staged[i]
	}
	r := NewRouter(core.Analyze(apps.Toystore(), core.DefaultOptions()), backends, obs.NewTracer(obs.NewRegistry(), obs.WallClock()))
	exec := r.Planner().ExecNode(su.Head())
	staged[exec].entered, staged[exec].release = make(chan struct{}, fleet), make(chan struct{})
	return r, staged, exec
}

// awaitParked returns once the goroutine running Router.<method> is
// parked on the router's membership lock, or that call has returned (done
// closed). Parked is read off the goroutine's stack, not its effects, so a
// call that never waits returns by done and not by a race.
func awaitParked(method string, done <-chan struct{}) {
	buf := make([]byte, 1<<20)
	for {
		select {
		case <-done:
			return
		default:
		}
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			lock := strings.Index(g, "sync.(*RWMutex).Lock(")
			if lock >= 0 && strings.Contains(g[lock:], "shard.(*Router)."+method+"(") {
				return
			}
		}
		runtime.Gosched()
	}
}

// Two updates in flight at once under one trace ID (a client that does not
// trace sends the zero one) each get back their own exec-node count
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
// update: the leave waits for the update's fan-out, the exec node's own
// count still comes back, and every survivor the update's plan names gets
// exactly one push.
func TestRouterLeaveDuringUpdate(t *testing.T) {
	su := wire.SealedUpdate{TemplateID: "U2", TraceID: obs.NewTraceID()}
	r, staged, exec := stagedFixture(3, su)
	targets, _ := r.Planner().Targets(su.TemplateID) // the plan the update runs under

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
	var leaveErr error
	left := make(chan struct{})
	go func() {
		defer close(left)
		_, leaveErr = r.Leave(context.Background(), exec, false)
	}()
	awaitParked("Leave", left)
	close(staged[exec].release)
	o := <-out
	if o.err != nil {
		t.Fatal(o.err)
	}
	if <-left; leaveErr != nil {
		t.Fatal(leaveErr)
	}

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

// invalidatingBackend is a fakeBackend whose Invalidate drops every entry
// it holds — the most conservative invalidation — after waiting at an
// optional gate, so a test can hold one push in flight.
type invalidatingBackend struct {
	fakeBackend
	entered chan struct{} // nil: no gate; else one send per Invalidate before it waits
	release chan struct{} // closed to let held Invalidates run
}

func (b *invalidatingBackend) Invalidate(ctx context.Context, su wire.SealedUpdate, seq uint64) (int, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
		<-b.release
	}
	b.mu.Lock()
	n := 0
	for id, es := range b.buckets {
		n += len(es)
		delete(b.buckets, id)
	}
	b.mu.Unlock()
	_, err := b.fakeBackend.Invalidate(ctx, su, seq)
	return n, err
}

// A warm join racing an update must not copy a bucket out of its old
// owner while the update's push to that owner is still in flight: the
// joining node was not in the update's plan, so a copy taken before the
// push lands would never be invalidated. The join waits for the fan-out.
func TestRouterJoinDuringUpdateCopiesNoStaleEntry(t *testing.T) {
	ctx := context.Background()
	backs := []*invalidatingBackend{{}, {}}
	r := NewRouter(core.Analyze(apps.Toystore(), core.DefaultOptions()), []Backend{backs[0], backs[1]}, nil)
	owners := seedBuckets(r, map[int]*fakeBackend{0: &backs[0].fakeBackend, 1: &backs[1].fakeBackend}, 2)

	// from is the old owner of a bucket the join moves to node 2.
	next, from := NewRingMembers([]int{0, 1, 2}), -1
	for _, q := range r.planner.analysis.App.Queries {
		if templateOwner(next, q.ID) == 2 {
			from = owners[q.ID]
			break
		}
	}
	if from == -1 {
		t.Fatal("the join moves no bucket: the test exercises nothing")
	}
	// An unknown template broadcasts, so from gets a push unless it executes.
	su := wire.SealedUpdate{TemplateID: "FORGED-0"}
	for i := 1; r.Planner().ExecNode(su.Head()) == from; i++ {
		su.TemplateID = fmt.Sprintf("FORGED-%d", i)
	}
	backs[from].entered, backs[from].release = make(chan struct{}, 1), make(chan struct{})

	updated := make(chan error, 1)
	go func() {
		_, _, _, err := r.Update(ctx, su)
		updated <- err
	}()
	<-backs[from].entered // the push to the old owner is in flight
	nb := &invalidatingBackend{}
	var joinErr error
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		_, joinErr = r.Join(ctx, nb, true)
	}()
	awaitParked("Join", joined)
	close(backs[from].release)
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
	if <-joined; joinErr != nil {
		t.Fatal(joinErr)
	}
	for id, es := range nb.buckets {
		if owners[id] == from && len(es) > 0 {
			t.Errorf("joined node holds %d entries of %s copied from node %d before the update's push invalidated them", len(es), id, from)
		}
	}
}

// Membership churn under live fan-out and query traffic: exercised with
// -race, the invariant is simply no data race, no deadlock, and a sane
// final member set.
func TestRouterMembershipChurnUnderTraffic(t *testing.T) {
	fakes := []*fakeBackend{{invalidated: 1}, {invalidated: 1}}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.WallClock())
	r := NewRouter(core.Analyze(apps.Toystore(), core.DefaultOptions()), []Backend{fakes[0], fakes[1]}, tracer)

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
				sq := wire.SealedQuery{TemplateID: "Q2", Key: fmt.Sprintf("Q2\x00%d", i%7), TraceID: obs.NewTraceID()}
				_, _, _ = r.Query(context.Background(), sq) // errors during churn are expected
				su := wire.SealedUpdate{TemplateID: "U1", TraceID: obs.NewTraceID()}
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
	analysis := core.Analyze(apps.Toystore(), core.DefaultOptions())
	sq := wire.SealedQuery{TemplateID: "Q2", Key: "Q2\x003", TraceID: obs.NewTraceID()}
	owner := NewPlanner(2, analysis).NoteQuery(sq.Head())
	flaky := &flakyBackend{nFail: 1}
	flaky.hit = true
	backends := []Backend{&fakeBackend{}, &fakeBackend{}}
	backends[owner] = flaky
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.WallClock())
	r := NewRouter(analysis, backends, tracer)

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
