package httpapi

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"dssp/internal/dssp"
	"dssp/internal/pipeline"
)

// TestFleetCloseTwiceLeavesNothingBehind starts the widest topology a
// Spec describes — router, two nodes, two partition masters, a replica
// behind each — drives both partitions, and closes it twice. After the
// first Close every listener must be gone and no goroutine of the fleet
// (accept loops, connection handlers, the hubs' push loops) may outlive
// it; the second Close must be a no-op.
func TestFleetCloseTwiceLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	hc := &http.Client{Timeout: DefaultTimeout, Transport: &http.Transport{}}
	f := startToystore(t, Spec{Nodes: 2, Router: true, Partitions: 2, Replicas: 1, Client: hc}, nil)
	if len(f.Homes) != 2 || len(f.Replicas[1]) != 1 || f.Hubs[1] == nil || len(f.Nodes) != 2 || f.Router == nil {
		t.Fatalf("fleet = %d homes, %d replicas behind partition 1, %d nodes, router %v; want 2, 1, 2 and a router",
			len(f.Homes), len(f.Replicas[1]), len(f.Nodes), f.Router != nil)
	}
	urls := append(append([]string{f.URL}, f.NodeURLs...), f.HomeURLs...)
	for _, hub := range f.Hubs {
		urls = append(urls, hub.Status().Replicas[0].URL)
	}

	ctx := context.Background()
	if _, _, err := f.Client.Update(ctx, f.spec.App.Update("U1"), 1); err != nil { // partition 0
		t.Fatal(err)
	}
	if _, err := f.Client.Query(ctx, f.spec.App.Query("Q3"), "15213"); err != nil { // partition 1
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	if got := f.Replicas[0][0].Applied(); got != 1 {
		t.Errorf("partition 0's replica applied %d updates by the time Close returned, want 1 (the stream was not drained)", got)
	}
	for _, u := range urls {
		if resp, err := hc.Get(u + PathMetrics); err == nil {
			resp.Body.Close()
			t.Errorf("%s still answers after Close", u)
		}
	}
	hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before Start, %d after Close:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestDrainHomeLeavesReplicasAtThePrimary closes a replicated fleet under
// writers that post updates straight to the primary and keep posting until
// it refuses them: whatever the primary assigned a sequence to before its
// listener went — the statements DrainHome's shutdown waited out included —
// every replica has applied by the time Close returns.
func TestDrainHomeLeavesReplicasAtThePrimary(t *testing.T) {
	f := startToystore(t, Spec{Nodes: 1, Replicas: 2}, nil)
	u1 := f.spec.App.Update("U1")
	home := newHTTPTransport(f.HTTP, f.HomeURLs[0], nil)

	const writers, warm = 4, 20
	confirmed := make(chan struct{}, warm) // sized to what the test receives; writers drop the rest
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				vals, err := dssp.Params(100*w + i)
				if err != nil {
					t.Error(err)
					return
				}
				su, err := f.spec.Codec.SealUpdate(u1, vals)
				if err != nil {
					t.Error(err)
					return
				}
				home.ExecUpdate(context.Background(), su, func(_ pipeline.ExecUpdateResult, e error) { err = e })
				if err != nil {
					return // the primary is gone
				}
				select {
				case confirmed <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	for i := 0; i < warm; i++ {
		<-confirmed
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	assigned := f.Homes[0].AssignedSeq()
	if assigned < warm {
		t.Fatalf("primary assigned %d sequences, want at least %d", assigned, warm)
	}
	if got := f.Homes[0].ConfirmedSeq(); got != assigned {
		t.Errorf("primary confirmed %d of the %d sequences it assigned", got, assigned)
	}
	for i, rep := range f.Replicas[0] {
		if got := rep.Applied(); got != assigned {
			t.Errorf("replica %d applied %d, primary assigned %d", i, got, assigned)
		}
	}
}

// TestStartRefusesNodelessFleet: a deployment without a node has no
// entry point for the client.
func TestStartRefusesNodelessFleet(t *testing.T) {
	if _, err := Start(Spec{}); err == nil {
		t.Fatal("Start accepted a spec with no nodes")
	}
}

// TestRegisterReplicaOverHTTP exercises the -replica-of handshake against
// a fleet-built primary: re-registering a known replica is a no-op that
// answers with both streams' positions.
func TestRegisterReplicaOverHTTP(t *testing.T) {
	f := startToystore(t, Spec{Nodes: 1, Replicas: 2}, nil)
	defer f.Close()
	known := f.Hubs[0].Status().Replicas
	st, err := RegisterReplica(f.HTTP, f.HomeURLs[0], known[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 {
		t.Errorf("hub lists %d replicas after a duplicate registration, want 2", len(st.Replicas))
	}
}
