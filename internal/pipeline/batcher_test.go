package pipeline

import (
	"context"
	"sync"
	"testing"
	"time"

	"dssp/internal/wire"
)

// manualClock is a hand-cranked After implementation: scheduled callbacks
// run only when the test fires them, so flush timing is deterministic.
type manualClock struct {
	mu      sync.Mutex
	pending []func()
	delays  []time.Duration
}

func (m *manualClock) After(d time.Duration, fn func()) {
	m.mu.Lock()
	m.pending = append(m.pending, fn)
	m.delays = append(m.delays, d)
	m.mu.Unlock()
}

func (m *manualClock) fire(t *testing.T) {
	t.Helper()
	m.mu.Lock()
	if len(m.pending) == 0 {
		m.mu.Unlock()
		t.Fatal("no timer armed")
	}
	fn := m.pending[0]
	m.pending = m.pending[1:]
	m.mu.Unlock()
	fn()
}

func (m *manualClock) armed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

func TestBatcherAccumulatesUntilIntervalFlush(t *testing.T) {
	clock := &manualClock{}
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, _ := newTestPipeline(tr, Options{MonitorInterval: 50 * time.Millisecond, After: clock.After})

	// One cached entry; the fake cache clears everything on the first
	// update of a batch, so per-update counts must be [1, 0, 0].
	if _, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: "k"}); err != nil {
		t.Fatal(err)
	}

	const updates = 3
	type reply struct {
		r   UpdateReply
		err error
	}
	replies := make(chan reply, updates)
	for i := 0; i < updates; i++ {
		p.Update(context.Background(), wire.SealedUpdate{}, func(r UpdateReply, err error) {
			replies <- reply{r, err}
		})
	}

	// All three confirmed at the home server, none resolved: their
	// invalidation waits for the interval.
	if n := tr.execs.Load(); n != updates+1 {
		t.Fatalf("home executions = %d, want %d", n, updates+1)
	}
	select {
	case rep := <-replies:
		t.Fatalf("update resolved before the interval flush: %+v", rep)
	default:
	}
	// The first pending update armed exactly one timer, at the interval.
	if clock.armed() != 1 {
		t.Fatalf("timers armed = %d, want 1", clock.armed())
	}
	if clock.delays[0] != 50*time.Millisecond {
		t.Fatalf("timer delay = %v, want the monitor interval", clock.delays[0])
	}

	clock.fire(t)
	want := []int{1, 0, 0}
	for i := 0; i < updates; i++ {
		rep := <-replies
		if rep.err != nil {
			t.Fatal(rep.err)
		}
		if rep.r.Affected != 2 || rep.r.Invalidated != want[i] {
			t.Errorf("update %d reply = %+v, want Affected=2 Invalidated=%d", i, rep.r, want[i])
		}
	}

	// The flush disarmed the batcher; the next update arms a fresh timer.
	p.Update(context.Background(), wire.SealedUpdate{}, func(UpdateReply, error) {})
	if clock.armed() != 1 {
		t.Fatalf("timers armed after flush = %d, want 1", clock.armed())
	}
}

func TestFlushUpdatesForcesPendingBatch(t *testing.T) {
	clock := &manualClock{}
	tr := &gateTransport{}
	p, _, _ := newTestPipeline(tr, Options{MonitorInterval: time.Hour, After: clock.After})

	resolved := make(chan UpdateReply, 1)
	p.Update(context.Background(), wire.SealedUpdate{}, func(r UpdateReply, err error) {
		if err != nil {
			t.Error(err)
		}
		resolved <- r
	})
	select {
	case <-resolved:
		t.Fatal("update resolved without a flush")
	default:
	}
	p.batcher.flush()
	r := <-resolved
	if r.Affected != 2 {
		t.Errorf("reply = %+v", r)
	}
	// The armed hour-long timer eventually fires on an empty batcher; it
	// must be a no-op.
	clock.fire(t)
}

func TestMonitorUpdateInlineWithoutInterval(t *testing.T) {
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, _ := newTestPipeline(tr, Options{})
	if _, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	fired := false
	p.MonitorUpdate(wire.SealedUpdate{}, 0, func(invalidated int) {
		fired = true
		if invalidated != 1 {
			t.Errorf("invalidated = %d, want 1", invalidated)
		}
	})
	if !fired {
		t.Fatal("inline MonitorUpdate must resolve before returning")
	}
}

func TestUpdateSyncWithRealTimerFlush(t *testing.T) {
	// End to end on the wall clock: a short real interval, no manual
	// scheduler — UpdateSync must block across the flush and return the
	// exact count.
	tr := &gateTransport{result: wire.SealedResult{Cipher: []byte("r")}}
	p, _, _ := newTestPipeline(tr, Options{MonitorInterval: 5 * time.Millisecond})
	if _, err := p.QuerySync(context.Background(), wire.SealedQuery{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	r, err := p.UpdateSync(context.Background(), wire.SealedUpdate{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 2 || r.Invalidated != 1 {
		t.Fatalf("reply = %+v, want Affected=2 Invalidated=1", r)
	}
}
