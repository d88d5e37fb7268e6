package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/homeserver"
	"dssp/internal/wire"
)

// ackingApplySink is a minimal replica apply endpoint: it acknowledges
// every batch at its tail sequence and counts deliveries, so hub tests
// can observe exactly what the push loops sent without a full replica
// engine behind them.
type ackingApplySink struct {
	applies atomic.Int64
	acked   atomic.Uint64
}

func (s *ackingApplySink) start(t *testing.T) *httptest.Server {
	return startFrameServer(t, &frameOps{OpReplicaApply: func(_ context.Context, req, resp *frame) {
		var batch applyMsg
		if err := batch.decodeWire(req.body); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		s.applies.Add(1)
		if n := len(batch); n > 0 {
			s.acked.Store(batch[n-1].Seq)
		}
		resp.seq = s.acked.Load()
	}})
}

// restartingReplica is a replica apply endpoint with a watermark of its
// own, kept the way home.Replica keeps it: from each batch it applies the
// run that continues its watermark. It records where every push started,
// and restart empties it — its watermark goes back to 0.
type restartingReplica struct {
	mu      sync.Mutex
	applied uint64
	starts  []uint64
}

func (s *restartingReplica) start(t *testing.T) *httptest.Server {
	return startFrameServer(t, &frameOps{OpReplicaApply: func(_ context.Context, req, resp *frame) {
		var batch applyMsg
		if err := batch.decodeWire(req.body); err != nil || len(batch) == 0 {
			resp.fail(statusBadRequest, fmt.Errorf("an apply batch of %d updates: %v", len(batch), err))
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.starts = append(s.starts, batch[0].Seq)
		for _, c := range batch {
			if c.Seq > s.applied+1 {
				break
			}
			s.applied = max(s.applied, c.Seq)
		}
		resp.seq = s.applied
	}})
}

func (s *restartingReplica) restart() {
	s.mu.Lock()
	s.applied = 0
	s.mu.Unlock()
}

// state is the watermark and where each push so far started.
func (s *restartingReplica) state() (uint64, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied, append([]uint64(nil), s.starts...)
}

// TestHubResendsToARestartedReplica: a replica that restarted empty is
// pushed the next update alone, applies nothing from it and answers
// watermark 0; the hub takes that watermark and resends the log from seq 1
// — once, not the same batch over and over — so the replica converges and
// the pushes stop while nothing new is confirmed. A replica that restarted
// with nothing new confirmed says hello again, and that resends it the log.
func TestHubResendsToARestartedReplica(t *testing.T) {
	rep := &restartingReplica{}
	srv := rep.start(t)
	hub := NewReplicaHub(nil, nil, []string{srv.URL})
	defer hub.Close()
	drain := func(when string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hub.Drain(ctx); err != nil {
			applied, starts := rep.state()
			t.Fatalf("%s: %v; the replica is at %d after %d pushes", when, err, applied, len(starts))
		}
	}
	confirmRange(hub, 1, 3)
	drain("before the restart")

	rep.restart()
	_, starts := rep.state()
	before := len(starts)
	confirmRange(hub, 4, 4)
	drain("after the restart")
	applied, starts := rep.state()
	if got := starts[before:]; applied != 4 || len(got) != 2 || got[0] != 4 || got[1] != 1 {
		t.Fatalf("after the restart the pushes started at %v and the replica is at %d; want 4 then 1, and 4", got, applied)
	}
	time.Sleep(3 * retryBackoff)
	if _, later := rep.state(); len(later) != len(starts) {
		t.Errorf("%d more pushes with nothing new confirmed, want 0", len(later)-len(starts))
	}

	rep.restart()
	if !hub.Resend(srv.URL) {
		t.Fatal("the hub does not know the replica it streams to")
	}
	drain("after the hello")
	if applied, _ := rep.state(); applied != 4 {
		t.Errorf("a replica that said hello after a restart is at %d, want 4", applied)
	}
}

// confirmRange confirms sequences from through to to the hub, in order,
// the way the home server does.
func confirmRange(hub *ReplicaHub, from, to uint64) {
	for seq := from; seq <= to; seq++ {
		hub.Confirm(homeserver.Confirmed{Seq: seq, Update: wire.SealedUpdate{TemplateID: "u"}})
	}
}

// TestHubCloseStopsStreamToUnreachableReplica pins the shutdown leak: a
// stream stuck retrying an unreachable replica must exit when the hub
// closes, not keep backing off forever. Close waits for the push loops,
// so a leak here is a test hang, and the -race run proves the loop's
// exit path does not race the closing state.
func TestHubCloseStopsStreamToUnreachableReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	hub := NewReplicaHub(nil, nil, []string{deadURL})
	confirmRange(hub, 1, 3)

	// Give the push loop time to fail at least once and park in its
	// retry backoff — the state the old code could never leave.
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := hub.Drain(ctx); err == nil {
		t.Fatal("Drain succeeded against an unreachable replica; want timeout")
	}

	closed := make(chan struct{})
	go func() {
		hub.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: push loop leaked past shutdown")
	}
}

// TestHubConfirmAfterCloseIsDropped pins the delivery-after-close race:
// a confirmation dispatched after Close (SIGTERM racing an in-flight
// update) must not be appended or pushed to replicas.
func TestHubConfirmAfterCloseIsDropped(t *testing.T) {
	sink := &ackingApplySink{}
	srv := sink.start(t)

	hub := NewReplicaHub(nil, nil, []string{srv.URL})
	confirmRange(hub, 1, 2)
	if err := hub.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	hub.Close()

	before := sink.applies.Load()
	confirmRange(hub, 3, 3)
	time.Sleep(50 * time.Millisecond)
	if got := sink.applies.Load(); got != before {
		t.Fatalf("replica received %d pushes after Close, want 0", got-before)
	}
	if st := hub.Status(); st.Confirmed != 2 {
		t.Fatalf("hub log grew to %d after Close, want 2", st.Confirmed)
	}
}

// TestHubCloseRacesConfirmDispatch drives Confirm from many goroutines
// while Close runs — the SIGTERM-races-dispatch scenario. Run under
// -race; the assertion is that nothing is delivered after Close returns
// (the push loops are gone by then) and the hub never panics.
func TestHubCloseRacesConfirmDispatch(t *testing.T) {
	sink := &ackingApplySink{}
	srv := sink.start(t)

	hub := NewReplicaHub(nil, nil, []string{srv.URL})

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				seq := uint64(g*50+i) + 1
				hub.Confirm(homeserver.Confirmed{Seq: seq, Update: wire.SealedUpdate{TemplateID: "u"}})
			}
		}(g)
	}
	close(start)
	time.Sleep(time.Millisecond)
	hub.Close()
	wg.Wait()

	// Close waited for the push loops, so the delivery count is final:
	// any later push would be a goroutine that survived shutdown.
	final := sink.applies.Load()
	time.Sleep(50 * time.Millisecond)
	if got := sink.applies.Load(); got != final {
		t.Fatalf("pushes advanced from %d to %d after Close returned", final, got)
	}
}
