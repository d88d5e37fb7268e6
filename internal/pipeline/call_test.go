package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

// heldTransport parks every statement until the test resolves it, in
// whatever order the test picks. A query is answered with its own key as
// the ciphertext, an update with its template ID's length as rows
// affected, so a reply names the statement it belongs to.
type heldTransport struct {
	mu      sync.Mutex
	queries map[string]func(ExecQueryResult, error)
	updates map[string]func(ExecUpdateResult, error)
	n       atomic.Int32 // statements parked so far
}

func newHeldTransport() *heldTransport {
	return &heldTransport{
		queries: make(map[string]func(ExecQueryResult, error)),
		updates: make(map[string]func(ExecUpdateResult, error)),
	}
}

func (t *heldTransport) ExecQuery(_ context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	t.mu.Lock()
	t.queries[sq.Key] = done
	t.mu.Unlock()
	t.n.Add(1)
}

func (t *heldTransport) ExecUpdate(_ context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	t.mu.Lock()
	t.updates[su.TemplateID] = done
	t.mu.Unlock()
	t.n.Add(1)
}

func (t *heldTransport) resolveQuery(key string) {
	t.mu.Lock()
	done := t.queries[key]
	delete(t.queries, key)
	t.mu.Unlock()
	done(ExecQueryResult{Result: wire.SealedResult{Cipher: []byte(key)}, Scanned: 1}, nil)
}

func (t *heldTransport) resolveUpdate(tmpl string) {
	t.mu.Lock()
	done := t.updates[tmpl]
	delete(t.updates, tmpl)
	t.mu.Unlock()
	done(ExecUpdateResult{Affected: len(tmpl), Seq: uint64(len(tmpl))}, nil)
}

// A Sync caller whose context ends before the transport answers gives up
// its hold on the call, and the continuation that answers later still
// holds it: the late reply lands in that call, never in the call of a
// statement made in between, and the call is not reused until the late
// reply is written. Run under -race, this is also the check that nothing
// reads or recycles a call a continuation is writing.
func TestAbandonedSyncCallsKeepTheirReplies(t *testing.T) {
	for _, lateFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("lateFirst=%v", lateFirst), func(t *testing.T) {
			tr := newHeldTransport()
			p, _, _ := newTestPipeline(tr, Options{})

			// The abandoned pair: parked at the transport, then cancelled.
			ctx, cancel := context.WithCancel(context.Background())
			abandoned := make(chan error, 2)
			go func() { _, err := p.QuerySync(ctx, wire.SealedQuery{Key: "late"}); abandoned <- err }()
			go func() { _, err := p.UpdateSync(ctx, wire.SealedUpdate{TemplateID: "Ulate"}); abandoned <- err }()
			waitFor(t, "both statements to park", func() bool { return tr.n.Load() == 2 })
			cancel()
			for i := 0; i < 2; i++ {
				if err := <-abandoned; !errors.Is(err, context.Canceled) {
					t.Fatalf("abandoned call returned %v, want context.Canceled", err)
				}
			}

			// The pair made in between, waiting while the late pair is open.
			type replies struct {
				q   QueryReply
				u   UpdateReply
				err error
			}
			got := make(chan replies, 1)
			go func() {
				var r replies
				var errs [2]error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					r.q, errs[0] = p.QuerySync(context.Background(), wire.SealedQuery{Key: "mine"})
				}()
				go func() {
					defer wg.Done()
					r.u, errs[1] = p.UpdateSync(context.Background(), wire.SealedUpdate{TemplateID: "U2"})
				}()
				wg.Wait()
				r.err = errors.Join(errs[:]...)
				got <- r
			}()
			waitFor(t, "the second pair to park", func() bool { return tr.n.Load() == 4 })

			if lateFirst {
				tr.resolveQuery("late")
				tr.resolveUpdate("Ulate")
				tr.resolveQuery("mine")
				tr.resolveUpdate("U2")
			} else {
				tr.resolveQuery("mine")
				tr.resolveUpdate("U2")
				tr.resolveQuery("late")
				tr.resolveUpdate("Ulate")
			}
			r := <-got
			if r.err != nil || string(r.q.Result.Cipher) != "mine" || r.u.Affected != 2 || r.u.Seq != 2 {
				t.Fatalf("the calls made in between got %q, %+v, %v; want their own replies", r.q.Result.Cipher, r.u, r.err)
			}

			// Every call is back in the pool now: the next ones, which
			// may be the recycled late calls, must wait for their own
			// replies, not wake on a signal the late callers never took.
			for i := 0; i < 3; i++ {
				key, tmpl := fmt.Sprintf("next%d", i), fmt.Sprintf("Unext%d", i)
				n := tr.n.Load()
				qc := make(chan QueryReply, 1)
				uc := make(chan UpdateReply, 1)
				go func() { r, _ := p.QuerySync(context.Background(), wire.SealedQuery{Key: key}); qc <- r }()
				go func() { r, _ := p.UpdateSync(context.Background(), wire.SealedUpdate{TemplateID: tmpl}); uc <- r }()
				waitFor(t, "the next pair to park", func() bool { return tr.n.Load() == n+2 })
				select {
				case r := <-qc:
					t.Fatalf("QuerySync returned %+v before its statement was answered", r)
				case r := <-uc:
					t.Fatalf("UpdateSync returned %+v before its statement was answered", r)
				case <-time.After(time.Millisecond):
				}
				tr.resolveQuery(key)
				tr.resolveUpdate(tmpl)
				if q, u := <-qc, <-uc; string(q.Result.Cipher) != key || u.Affected != len(tmpl) {
					t.Fatalf("call %d got %q, %+v", i, q.Result.Cipher, u)
				}
			}
		})
	}
}

// Under a monitoring interval an update's call is held by the batcher
// until the flush, which resolves it through the call's bound
// continuation with the update's own count; a MonitorSync waits the same
// way.
func TestUpdateSyncResolvesAtTheFlush(t *testing.T) {
	clock := &manualClock{}
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, reg := newTestPipeline(tr, Options{MonitorInterval: time.Hour, After: clock.After})
	for _, k := range []string{"a", "b"} {
		if _, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: k}); err != nil {
			t.Fatal(err)
		}
	}

	type reply struct {
		r   UpdateReply
		err error
	}
	done := make(chan reply, 1)
	go func() {
		r, err := p.UpdateSync(context.Background(), wire.SealedUpdate{TemplateID: "U1"})
		done <- reply{r, err}
	}()
	monitored := make(chan int, 1)
	waitFor(t, "the update to join the batch", func() bool { return clock.armed() == 1 })
	go func() {
		n, err := p.MonitorSync(context.Background(), wire.SealedUpdate{TemplateID: "U9"}, 0)
		if err != nil {
			t.Error(err)
		}
		monitored <- n
	}()
	waitFor(t, "the fanned-out update to join the batch", func() bool {
		p.batcher.mu.Lock()
		defer p.batcher.mu.Unlock()
		return len(p.batcher.pending) == 2
	})
	select {
	case r := <-done:
		t.Fatalf("UpdateSync returned %+v before the flush", r)
	default:
	}

	clock.fire(t)
	r := <-done
	if r.err != nil || r.r.Affected != 2 || r.r.Invalidated != 2 || r.r.Seq != 3 {
		t.Fatalf("UpdateSync = %+v, %v; want Affected=2 Invalidated=2 Seq=3", r.r, r.err)
	}
	if n := <-monitored; n != 0 {
		t.Fatalf("MonitorSync = %d, want 0 (the batch's first update emptied the cache)", n)
	}
	// Only the forwarded update is a request.
	var requests int64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == obs.MRequestSeconds && m.Labels[obs.LKind] == obs.KindUpdate {
			requests += m.Count
		}
	}
	if requests != 1 {
		t.Fatalf("update requests observed = %d, want 1", requests)
	}

	// A MonitorSync that gives up before the flush leaves its call to the
	// batcher, which resolves it harmlessly later.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.MonitorSync(ctx, wire.SealedUpdate{TemplateID: "U9"}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("MonitorSync under a cancelled context = %v", err)
	}
	p.batcher.flush()
}

// The leader's call is the flight: joiners get its result, and it leaves
// the map exactly once — a later leader of the same key, perhaps the
// recycled call itself, is not taken out by the earlier one.
func TestCoalescedJoinersShareTheLeadersCall(t *testing.T) {
	tr := newHeldTransport()
	reg := obs.NewRegistry()
	p := New(missCache{}, tr, obs.NewTracer(reg, obs.WallClock()), Options{}) // every round misses
	coalesced := reg.Counter(obs.MCoalescedMisses)
	flights := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.flights)
	}

	for round := int64(1); round <= 3; round++ {
		const joiners = 4
		replies := make(chan QueryReply, joiners+1)
		for i := 0; i <= joiners; i++ {
			go func() {
				r, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: "hot"})
				if err != nil {
					t.Error(err)
				}
				replies <- r
			}()
			if i == 0 {
				waitFor(t, "the leader to park", func() bool { return tr.n.Load() == int32(round) })
			}
		}
		waitFor(t, "the joiners to join", func() bool { return coalesced.Value() == round*joiners })
		if n := flights(); n != 1 {
			t.Fatalf("round %d: %d flights in the map, want 1", round, n)
		}
		tr.resolveQuery("hot")
		led := 0
		for i := 0; i <= joiners; i++ {
			r := <-replies
			if string(r.Result.Cipher) != "hot" {
				t.Fatalf("round %d: reply %+v, want the leader's result", round, r)
			}
			if !r.Coalesced {
				led++
			}
		}
		if led != 1 {
			t.Fatalf("round %d: %d replies not coalesced, want 1", round, led)
		}
		if n := flights(); n != 0 {
			t.Fatalf("round %d: %d flights left after the answer, want 0", round, n)
		}
	}
}

// stubHome answers every statement at once, allocating nothing.
type stubHome struct {
	res wire.SealedResult
	seq uint64
}

func (h *stubHome) ExecQuery(wire.SealedQuery) (homeserver.Answer, error) {
	return homeserver.Answer{Result: h.res, Scanned: 1}, nil
}

func (h *stubHome) ExecUpdate(wire.SealedUpdate) (int, uint64, error) {
	h.seq++
	return 1, h.seq, nil
}

// missCache misses every lookup and keeps nothing, so every query is a
// miss and every update invalidates nothing. As a Keeper it hands the
// answer back as the one it kept, with no copy: the stub home's answer is
// never reused, so what a miss allocates is the pipeline's own.
type missCache struct{}

func (missCache) HandleQuery(wire.SealedQuery) (wire.SealedResult, bool) {
	return wire.SealedResult{}, false
}
func (missCache) StoreResult(wire.SealedQuery, wire.SealedResult, bool) {}
func (missCache) KeepResult(_ wire.SealedQuery, r wire.SealedResult, _ bool) (wire.SealedResult, bool) {
	return r, true
}
func (missCache) OnUpdateCompleted(wire.SealedUpdate) int         { return 0 }
func (missCache) OnUpdatesCompleted(us []wire.SealedUpdate) []int { return make([]int, len(us)) }

// directPipeline is a traced pipeline over a direct transport to a stub
// home: what a miss or an update then allocates is the pipeline's own.
func directPipeline() *Pipeline {
	home := &stubHome{res: wire.SealedResult{Cipher: []byte("sealed")}}
	return New(missCache{}, NewDirectTransport(home), obs.NewTracer(obs.NewRegistry(), obs.WallClock()), Options{})
}

var (
	benchQuery  = wire.SealedQuery{TemplateID: "Q1", Key: "k", TraceID: obs.TraceID{Proc: 1, Seq: 2}}
	benchUpdate = wire.SealedUpdate{TemplateID: "U1", TraceID: obs.TraceID{Proc: 1, Seq: 3}}
)

func TestWarmMissAndUpdateAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	p := directPipeline()
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := p.QuerySync(ctx, benchQuery); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm miss allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := p.UpdateSync(ctx, benchUpdate); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm update allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := p.MonitorSync(ctx, benchUpdate, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm MonitorSync allocates %v times, want 0", n)
	}
}

// BenchmarkPipelineMiss is one query miss through QuerySync over a direct
// transport to a stub home: lookup, network span, forward, store and the
// request histogram, with nothing below the pipeline allocating.
// BENCH_allocs.json gates it at the pipeline's own allocations, none.
func BenchmarkPipelineMiss(b *testing.B) {
	p := directPipeline()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.QuerySync(ctx, benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineUpdate is the same for one update through UpdateSync:
// forward, confirmation and inline invalidation.
func BenchmarkPipelineUpdate(b *testing.B) {
	p := directPipeline()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.UpdateSync(ctx, benchUpdate); err != nil {
			b.Fatal(err)
		}
	}
}
