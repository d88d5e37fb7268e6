package httpapi

import (
	"context"
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

func (s *ackingApplySink) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathReplicaApply, func(w http.ResponseWriter, r *http.Request) {
		var req ReplicaApplyRequest
		if !readMessage(w, r, maxBatchBytes, &req) {
			return
		}
		s.applies.Add(1)
		if n := len(req.Batch); n > 0 {
			s.acked.Store(req.Batch[n-1].Seq)
		}
		writeMessage(nil, w, &ReplicaApplyResponse{Applied: s.acked.Load()})
	})
	return mux
}

func confirmedBatch(from, to uint64) []homeserver.Confirmed {
	var batch []homeserver.Confirmed
	for seq := from; seq <= to; seq++ {
		batch = append(batch, homeserver.Confirmed{Seq: seq, Update: wire.SealedUpdate{TemplateID: "u"}})
	}
	return batch
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

	hub := NewReplicaHub(nil, nil)
	hub.Register(deadURL)
	hub.Confirm(confirmedBatch(1, 3))

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
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	hub := NewReplicaHub(nil, nil)
	hub.Register(srv.URL)
	hub.Confirm(confirmedBatch(1, 2))
	if err := hub.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	hub.Close()

	before := sink.applies.Load()
	hub.Confirm(confirmedBatch(3, 3))
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
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	hub := NewReplicaHub(nil, nil)
	hub.Register(srv.URL)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				seq := uint64(g*50+i) + 1
				hub.Confirm([]homeserver.Confirmed{{Seq: seq, Update: wire.SealedUpdate{TemplateID: "u"}}})
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
