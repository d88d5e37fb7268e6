package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// TestFleetCloseTwiceLeavesNothingBehind starts the widest topology a
// Spec describes — router, two nodes, two partition masters, a replica
// behind each — drives both partitions, and closes it twice. After the
// first Close every listener must be gone, no goroutine of the fleet
// (accept loops, frame read loops on both ends, the hubs' push loops) may
// outlive it, and nothing may hold a node's cache; the second Close must
// be a no-op.
func TestFleetCloseTwiceLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	hc := &http.Client{Timeout: DefaultTimeout, Transport: &http.Transport{}}
	f := startToystore(t, Spec{Nodes: 2, Router: true, Partitions: 2, Replicas: 1, Client: hc}, nil)
	collected := watchCollection(f.Nodes[0].Cache)
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
	f = nil
	for _, u := range urls {
		if resp, err := hc.Get(u + PathMetrics); err == nil {
			resp.Body.Close()
			t.Errorf("%s still answers after Close", u)
		}
	}
	hc.CloseIdleConnections()
	checkNothingOutlives(t, before, collected)
}

// watchCollection returns a channel closed once c has been garbage
// collected.
func watchCollection(c *cache.Cache) <-chan struct{} {
	gone := make(chan struct{})
	runtime.SetFinalizer(c, func(*cache.Cache) { close(gone) })
	return gone
}

// checkNothingOutlives waits up to five seconds for the goroutine count to
// fall back to before and for the watched cache to be collected, and fails
// the test — with every goroutine's stack — if either does not.
func checkNothingOutlives(t *testing.T, before int, collected <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the deployment started, %d after it was shut down:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Error("a node's cache is still reachable after shutdown")
			return
		}
	}
}

// TestNothingOutlivesABareShutdown boots a fleet the way the repository's
// benchmark does — bare http.Servers, their own http.Clients, router →
// two nodes → home — runs traffic, and stops each server front to back
// with nothing but http.Server.Shutdown. The frame connections the
// servers hijacked must close through the shutdown hook alone: no
// goroutine may outlive the servers, and no node's cache may stay
// reachable, or every repetition of the benchmark would keep the last
// system alive.
func TestNothingOutlivesABareShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	var collected <-chan struct{}
	func() {
		app := apps.Toystore()
		codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
		db := storage.NewDatabase(app.Schema)
		seedToys(t, db)
		analysis := core.Analyze(app, core.DefaultOptions())
		var servers []*http.Server
		var served []chan error
		var transports []*http.Transport
		serve := func(h http.Handler) string {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: h}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			servers, served = append(servers, srv), append(served, done)
			return "http://" + ln.Addr().String()
		}
		client := func() *http.Client {
			tr := &http.Transport{MaxIdleConnsPerHost: 2}
			transports = append(transports, tr)
			return &http.Client{Timeout: DefaultTimeout, Transport: tr}
		}
		homeURL := serve(HomeHandler(homeserver.New(db, app, codec)))
		urls := make([]string, 2)
		for i := range urls {
			node := dssp.NewNode(app, analysis, cache.Options{})
			if i == 0 {
				collected = watchCollection(node.Cache)
			}
			urls[i] = serve(NewNodeServerWithOptions(node, homeURL, client(), NodeOptions{NodeID: strconv.Itoa(i)}).Handler())
		}
		hc := NewClient(codec, serve(NewRouterServer(analysis, urls, RouterOptions{Client: client()}).Handler()), client())
		hc.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock())

		ctx := context.Background()
		for _, id := range []int{1, 2, 5, 1, 2, 5} {
			if _, err := hc.Query(ctx, app.Query("Q2"), id); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := hc.Update(ctx, app.Update("U1"), 2); err != nil {
			t.Fatal(err)
		}

		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		for i := len(servers) - 1; i >= 0; i-- {
			if err := servers[i].Shutdown(shutdownCtx); err != nil {
				t.Fatal(err)
			}
			if err := <-served[i]; !errors.Is(err, http.ErrServerClosed) {
				t.Fatal(err)
			}
		}
	}()
	checkNothingOutlives(t, before, collected)
}

// TestDrainHomeLeavesReplicasAtThePrimary closes a replicated fleet under
// writers that post updates straight to the primary and keep posting until
// it refuses them: whatever the primary assigned a sequence to before its
// listener went — the statements DrainHome's shutdown waited out included —
// every replica has applied by the time Close returns.
func TestDrainHomeLeavesReplicasAtThePrimary(t *testing.T) {
	f := startToystore(t, Spec{Nodes: 1, Replicas: 2}, nil)
	u1 := f.spec.App.Update("U1")
	home := homeTransport{newHop(f.HTTP, f.HomeURLs[0], nil)}

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

// TestDrainHomeAnswersTheUpdateInFlight: an update the primary is
// executing when DrainHome begins — held in its confirmation sink, before
// its answer is sent, until the primary's listener is gone — is answered,
// not cut off, and has reached the replica by the time Close returns: the
// SIGTERM path leaves no torn interval between what the primary confirmed
// and what its replicas applied.
func TestDrainHomeAnswersTheUpdateInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	f := startToystore(t, Spec{Nodes: 1, Replicas: 1}, nil)
	f.Homes[0].OnConfirm(func(c homeserver.Confirmed) {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		f.Hubs[0].Confirm(c)
	})
	vals, err := dssp.Params(1)
	if err != nil {
		t.Fatal(err)
	}
	su, err := f.spec.Codec.SealUpdate(f.spec.App.Update("U1"), vals)
	if err != nil {
		t.Fatal(err)
	}
	home := homeTransport{newHop(f.HTTP, f.HomeURLs[0], nil)}
	answered := make(chan error, 1)
	go home.ExecUpdate(context.Background(), su, func(r pipeline.ExecUpdateResult, err error) {
		if err == nil && r.Affected != 1 {
			err = fmt.Errorf("affected %d rows, want 1", r.Affected)
		}
		answered <- err
	})
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	addr := strings.TrimPrefix(f.HomeURLs[0], "http://")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			break // DrainHome has begun: the listener is gone
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("the primary still listens after Close began")
		}
	}
	close(release)

	if err := <-answered; err != nil {
		t.Errorf("the update in flight when DrainHome began: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := f.Replicas[0][0].Applied(); got != 1 {
		t.Errorf("the replica applied %d updates by the time Close returned, want 1", got)
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
// a fleet-built primary: re-registering a known replica adds no stream,
// and the answer carries both streams' positions.
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
