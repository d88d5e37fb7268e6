package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// fakeCache is a by-key map standing in for the DSSP node cache.
type fakeCache struct {
	mu    sync.Mutex
	store map[string]wire.SealedResult
}

func newFakeCache() *fakeCache {
	return &fakeCache{store: make(map[string]wire.SealedResult)}
}

func (c *fakeCache) HandleQuery(q wire.SealedQuery) (wire.SealedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.store[q.Key]
	return r, ok
}

func (c *fakeCache) StoreResult(q wire.SealedQuery, r wire.SealedResult, empty bool) {
	if empty {
		return
	}
	c.mu.Lock()
	c.store[q.Key] = r
	c.mu.Unlock()
}

func (c *fakeCache) OnUpdateCompleted(u wire.SealedUpdate) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.store)
	c.store = make(map[string]wire.SealedResult)
	return n
}

func (c *fakeCache) OnUpdatesCompleted(us []wire.SealedUpdate) []int {
	counts := make([]int, len(us))
	for i := range us {
		counts[i] = c.OnUpdateCompleted(us[i])
	}
	return counts
}

// gateTransport counts executions and can hold every ExecQuery at a gate
// until the test releases it, so concurrent misses deterministically
// overlap.
type gateTransport struct {
	execs  atomic.Int64
	gate   chan struct{} // nil = resolve immediately
	err    error
	result wire.SealedResult
}

func (t *gateTransport) ExecQuery(_ context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	t.execs.Add(1)
	if t.gate != nil {
		<-t.gate
	}
	done(ExecQueryResult{Result: t.result, Scanned: 1}, t.err)
}

func (t *gateTransport) ExecUpdate(_ context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	t.execs.Add(1)
	done(ExecUpdateResult{Affected: 2, Seq: uint64(t.execs.Load())}, t.err)
}

func newTestPipeline(tr Transport, opts Options) (*Pipeline, *fakeCache, *obs.Registry) {
	reg := obs.NewRegistry()
	c := newFakeCache()
	return New(c, tr, obs.NewTracer(reg, obs.WallClock()), opts), c, reg
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestMissStoresThenHits(t *testing.T) {
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, _ := newTestPipeline(tr, Options{})
	sq := wire.SealedQuery{Key: "k1"}

	r, err := p.QuerySync(context.Background(), sq)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit || r.Coalesced || r.Scanned != 1 {
		t.Fatalf("first query: got %+v, want miss with Scanned=1", r)
	}
	r, err = p.QuerySync(context.Background(), sq)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit {
		t.Fatalf("second query: got %+v, want hit", r)
	}
	if n := tr.execs.Load(); n != 1 {
		t.Fatalf("home executions = %d, want 1", n)
	}
}

func TestCoalescingSharesOneExecution(t *testing.T) {
	const followers = 7
	tr := &gateTransport{gate: make(chan struct{}), result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, reg := newTestPipeline(tr, Options{})
	coalesced := reg.Counter(obs.MCoalescedMisses)
	sq := wire.SealedQuery{Key: "hot"}

	type reply struct {
		r   QueryReply
		err error
	}
	replies := make(chan reply, followers+1)
	ask := func() {
		r, err := p.QuerySync(context.Background(), sq)
		replies <- reply{r, err}
	}

	go ask() // leader: reaches the transport and blocks at the gate
	waitFor(t, "leader to reach transport", func() bool { return tr.execs.Load() == 1 })
	for i := 0; i < followers; i++ {
		go ask()
	}
	waitFor(t, "followers to join the flight", func() bool { return coalesced.Value() == followers })
	close(tr.gate)

	var lead, joined int
	for i := 0; i < followers+1; i++ {
		rep := <-replies
		if rep.err != nil {
			t.Fatal(rep.err)
		}
		if string(rep.r.Result.Cipher) != "r" {
			t.Fatalf("reply result = %q, want %q", rep.r.Result.Cipher, "r")
		}
		if rep.r.Coalesced {
			joined++
		} else {
			lead++
		}
	}
	if lead != 1 || joined != followers {
		t.Fatalf("got %d leaders, %d coalesced; want 1, %d", lead, joined, followers)
	}
	if n := tr.execs.Load(); n != 1 {
		t.Fatalf("home executions = %d, want 1", n)
	}
}

func TestCoalescingErrorPropagatesAndClearsFlight(t *testing.T) {
	boom := errors.New("boom")
	tr := &gateTransport{gate: make(chan struct{}), err: boom}
	p, _, reg := newTestPipeline(tr, Options{})
	sq := wire.SealedQuery{Key: "hot"}

	errs := make(chan error, 2)
	go func() { _, err := p.QuerySync(context.Background(), sq); errs <- err }()
	waitFor(t, "leader to reach transport", func() bool { return tr.execs.Load() == 1 })
	go func() { _, err := p.QuerySync(context.Background(), sq); errs <- err }()
	waitFor(t, "follower to join the flight", func() bool {
		return reg.Counter(obs.MCoalescedMisses).Value() == 1
	})
	close(tr.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("error = %v, want %v", err, boom)
		}
	}

	p.mu.Lock()
	inFlight := len(p.flights)
	p.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("flights left after failure = %d, want 0", inFlight)
	}

	// A failed flight must not poison the key: the next miss re-executes.
	tr.err = nil
	tr.gate = nil
	if _, err := p.QuerySync(context.Background(), sq); err != nil {
		t.Fatal(err)
	}
	if n := tr.execs.Load(); n != 2 {
		t.Fatalf("home executions = %d, want 2 (failed + retried)", n)
	}
}

func TestCoalescingIsPerKey(t *testing.T) {
	tr := &gateTransport{gate: make(chan struct{}), result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, reg := newTestPipeline(tr, Options{})

	done := make(chan struct{}, 2)
	go func() { p.QuerySync(context.Background(), wire.SealedQuery{Key: "a"}); done <- struct{}{} }()
	go func() { p.QuerySync(context.Background(), wire.SealedQuery{Key: "b"}); done <- struct{}{} }()
	// Distinct keys never share a flight: both must reach the transport.
	waitFor(t, "both keys to reach transport", func() bool { return tr.execs.Load() == 2 })
	close(tr.gate)
	<-done
	<-done
	if n := reg.Counter(obs.MCoalescedMisses).Value(); n != 0 {
		t.Fatalf("coalesced counter = %d, want 0", n)
	}
}

func TestUpdateRunsInvalidation(t *testing.T) {
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, _ := newTestPipeline(tr, Options{})
	if _, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	r, err := p.UpdateSync(context.Background(), wire.SealedUpdate{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 2 || r.Invalidated != 1 {
		t.Fatalf("update reply = %+v, want Affected=2 Invalidated=1", r)
	}
}

// stuckTransport never resolves, for context-cancellation tests.
type stuckTransport struct{}

func (stuckTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	go func() { <-ctx.Done() }()
}
func (stuckTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	go func() { <-ctx.Done() }()
}

func TestQuerySyncHonorsContext(t *testing.T) {
	p, _, _ := newTestPipeline(stuckTransport{}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.QuerySync(ctx, wire.SealedQuery{Key: "k"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if _, err := p.UpdateSync(ctx, wire.SealedUpdate{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// asyncTransport resolves on a goroutine of its own, and only once the
// test lets it: QuerySync and UpdateSync are then sure to find the call
// pending and take the waiting path.
type asyncTransport struct {
	release chan struct{}
	wg      sync.WaitGroup
}

func (t *asyncTransport) ExecQuery(_ context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		<-t.release
		done(ExecQueryResult{Result: wire.SealedResult{Cipher: []byte(sq.Key)}, Scanned: 3}, nil)
	}()
}

func (t *asyncTransport) ExecUpdate(_ context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		<-t.release
		done(ExecUpdateResult{Affected: 2, Seq: 9}, nil)
	}()
}

// The Sync forms return at once when the continuation has already run;
// this is the other half: a transport that completes later, on another
// goroutine, and one that never completes under a cancelled context.
func TestQuerySyncAsyncTransport(t *testing.T) {
	tr := &asyncTransport{release: make(chan struct{})}
	p, _, _ := newTestPipeline(tr, Options{})

	// Late completion: each caller gets its own outcome.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		key := fmt.Sprintf("k%d", i)
		go func() {
			defer wg.Done()
			r, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: key})
			if err != nil || r.Hit || r.Scanned != 3 || string(r.Result.Cipher) != key {
				t.Errorf("QuerySync(%s) = %+v, %v", key, r, err)
			}
		}()
		go func() {
			defer wg.Done()
			r, err := p.UpdateSync(context.Background(), wire.SealedUpdate{TemplateID: "U1"})
			if err != nil || r.Affected != 2 || r.Seq != 9 {
				t.Errorf("UpdateSync = %+v, %v", r, err)
			}
		}()
	}
	close(tr.release) // races the callers to the completion state: either order must work
	wg.Wait()
	tr.wg.Wait()

	// The order nothing above can force: the caller parked first.
	var c syncCall[int]
	got := make(chan int)
	go func() {
		v, _ := c.wait(context.Background())
		got <- v
	}()
	waitFor(t, "the caller to park", func() bool { return c.state.Load() == callWaiting })
	c.done(7, nil)
	if v := <-got; v != 7 {
		t.Fatalf("parked caller woke with %d, want 7", v)
	}

	// Never completing: a cancelled context ends the wait, and a
	// completion that arrives afterwards has nowhere to block.
	late := &asyncTransport{release: make(chan struct{})}
	p, _, _ = newTestPipeline(late, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := p.QuerySync(ctx, wire.SealedQuery{Key: "k"}); !errors.Is(err, context.Canceled) || r.Result.Cipher != nil || r.Hit {
		t.Fatalf("QuerySync under a cancelled context = %+v, %v", r, err)
	}
	if r, err := p.UpdateSync(ctx, wire.SealedUpdate{}); !errors.Is(err, context.Canceled) || r != (UpdateReply{}) {
		t.Fatalf("UpdateSync under a cancelled context = %+v, %v", r, err)
	}
	close(late.release)
	late.wg.Wait()
}

// Template IDs reach a node in the clear header of messages the untrusted
// tier sends, so a flood of forged ones must not grow the pipeline's cache
// of request-histogram handles; the registry behind it folds the flood
// into one overflow instrument, and every request is still counted.
func TestForgedTemplateFloodLeavesHandleCacheBounded(t *testing.T) {
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, reg := newTestPipeline(tr, Options{})
	const flood = 10000
	for i := 0; i < flood; i++ {
		sq := wire.SealedQuery{TemplateID: fmt.Sprintf("forged%d", i), Key: fmt.Sprintf("k%d", i)}
		if _, err := p.QuerySync(context.Background(), sq); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.hists.Len(); n > obs.DefaultLabelCap {
		t.Errorf("request-histogram handle cache holds %d entries after %d forged template IDs, cap %d", n, flood, obs.DefaultLabelCap)
	}
	var requests int64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == obs.MRequestSeconds {
			requests += m.Count
		}
	}
	if requests != flood {
		t.Errorf("%s holds %d observations, want %d", obs.MRequestSeconds, requests, flood)
	}
}
