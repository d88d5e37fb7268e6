package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// Spec describes one HTTP deployment of the paper's Figure 1: clients,
// untrusted DSSP nodes (behind a shard router when there are several),
// and the application's trusted home tier. Start is the only place that
// picture is wired, so it is the one place to review where the trust
// boundary runs: Codec — the application's keys — goes to the home
// primaries, their replicas and the client, and to nothing else.
type Spec struct {
	App   *template.App
	Codec *wire.Codec

	// NewDB returns one populated master database. It is called once per
	// primary and replica and must return byte-identical copies.
	NewDB func() (*storage.Database, error)

	// Nodes DSSP nodes (at least 1) serve the application. More than one
	// means a shard router fronts them, is the clients' entry point and
	// names each node by its fleet position; one node is the entry point
	// itself.
	Nodes int

	// Partitions masters split the home tier by table group (0 = 1);
	// Replicas read replicas sit behind each, fed by its primary's hub.
	Partitions, Replicas int

	// Client's Timeout bounds every frame call between processes, and
	// Client carries what stays HTTP (ring admin, a replica's hello); nil
	// gets a DefaultTimeout-bounded one.
	Client *http.Client
}

// Fleet is a started Spec: every process behind its own loopback
// listener, and the live handles experiments and tests read.
type Fleet struct {
	Homes    []*homeserver.Server // partition primaries, in partition order
	Replicas [][]*home.Replica    // [partition][replica]
	Hubs     []*ReplicaHub        // per partition; nil entries without replicas
	Nodes    []*dssp.Node         // a node's registry is its Cache.Obs()
	Router   *RouterServer        // nil for a one-node fleet

	// Topology names every process Start booted by its URL, and is what
	// wired them. NodeURLs lists the nodes', then the spares AddNode stood
	// up since.
	Topology Topology
	NodeURLs []string
	URL      string       // the clients' entry point: the router, or node 0
	Client   *Client      // the trusted application side, pointed at URL
	HTTP     *http.Client // Spec.Client, or its default

	spec     Spec
	analysis *core.Analysis
	stops    []func() error // in boot order; Close runs them in reverse
	once     sync.Once
	err      error
}

// Start opens every process's loopback listener first, describes the
// deployment by their URLs in a Topology, validates it as a topology file
// is validated, and wires every process from it. It boots back to front —
// per partition its replicas and then the primary whose hub feeds them,
// then nodes, then the router — so every process's upstream is serving
// before it is.
func Start(spec Spec) (*Fleet, error) {
	f := &Fleet{Topology: Topology{Home: make([]HomeEndpoint, max(spec.Partitions, 1))}, spec: spec}
	t := &f.Topology
	if spec.App != nil {
		t.App = spec.App.Name
	}
	lns := make(map[string]*httptest.Server)
	listen := func() string {
		srv, url := newListener()
		lns[url] = srv
		return url
	}
	for p := range t.Home {
		for k := 0; k < spec.Replicas; k++ {
			t.Home[p].Replicas = append(t.Home[p].Replicas, listen())
		}
		t.Home[p].Primary = listen()
	}
	for i := 0; i < spec.Nodes; i++ {
		t.Nodes = append(t.Nodes, listen())
	}
	if spec.Nodes > 1 {
		t.Router = listen()
	}
	err := t.validate()
	if err == nil {
		f.Homes, f.Replicas, err = home.NewTier(spec.App, spec.Codec, spec.NewDB, len(t.Home), spec.Replicas)
	}
	if err != nil {
		for _, srv := range lns {
			srv.Close()
		}
		return nil, fmt.Errorf("httpapi: %w", err)
	}

	f.Hubs, f.HTTP = make([]*ReplicaHub, len(t.Home)), defaultClient(spec.Client)
	f.analysis = core.Analyze(spec.App, core.DefaultOptions())
	for p, ep := range t.Home {
		for k, u := range ep.Replicas {
			f.serve(lns[u], ReplicaHandler(f.Replicas[p][k]), Shutdown)
		}
		h, hub := t.PrimaryHandler(p, f.Homes[p], f.HTTP)
		f.serve(lns[ep.Primary], h, func(ctx context.Context, srv *http.Server) error {
			if err := DrainHome(ctx, srv, hub); err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			return nil
		})
		f.Hubs[p] = hub
	}
	for _, u := range t.Nodes {
		f.startNode(lns[u], u)
	}
	if t.Router != "" {
		f.Router = NewRouterServer(f.analysis, t.Nodes, RouterOptions{Client: f.HTTP})
		f.serve(lns[t.Router], f.Router.Handler(), Shutdown)
	}
	f.URL = t.Entry()
	f.Client = NewClient(spec.Codec, f.URL, f.HTTP)
	return f, nil
}

// newListener opens one process's loopback listener and returns it, not
// yet serving, with its base URL.
func newListener() (*httptest.Server, string) {
	srv := httptest.NewUnstartedServer(nil)
	return srv, "http://" + srv.Listener.Addr().String()
}

// serve starts h on srv's listener and leaves stopping it to Close: stop
// is Shutdown or a primary's DrainHome, which return once the requests
// and frames in flight have been answered (httptest.Server.Close never
// calls Shutdown, so it would leave the frame connections open).
func (f *Fleet) serve(srv *httptest.Server, h http.Handler, stop func(context.Context, *http.Server) error) {
	srv.Config.Handler = h
	srv.Start()
	f.stops = append(f.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), DefaultTimeout)
		defer cancel()
		err := stop(ctx, srv.Config)
		srv.Close()
		return err
	})
}

// startNode serves a node at url over the home tier the topology names,
// with the span label its place in the topology gives it, and returns url.
func (f *Fleet) startNode(srv *httptest.Server, url string) string {
	node := dssp.NewNode(f.spec.App, f.analysis, cache.Options{})
	opts := NodeOptions{Home: f.Topology.Home, NodeID: f.Topology.nodeID(url)}
	f.serve(srv, NewNodeServerWithOptions(node, "", f.HTTP, opts).Handler(), Shutdown)
	f.Nodes, f.NodeURLs = append(f.Nodes, node), append(f.NodeURLs, url)
	return url
}

// AddNode stands up a spare node over the same home tier and returns its
// base URL: the elastic join's first half. The node serves but owns
// nothing until the router admits it (PathRingJoin).
func (f *Fleet) AddNode() string { return f.startNode(newListener()) }

// Close shuts the deployment down in reverse boot order, front to back:
// router, nodes, then each primary through DrainHome while its replicas
// still listen, then those replicas. Every listener is shut down with
// Shutdown, so when Close returns no frame connection of the fleet is
// open. It reports a process that could not drain; calling it again is
// harmless and reports the same.
func (f *Fleet) Close() error {
	f.once.Do(func() {
		for i := len(f.stops) - 1; i >= 0; i-- {
			f.err = errors.Join(f.err, f.stops[i]())
		}
	})
	return f.err
}

// DrainHome is a primary's graceful shutdown, in the one order that
// leaves no replica short of the primary: Shutdown(srv) — which returns
// once the statements in flight on srv have been answered, each confirmed
// to the hub before it was — runs; then the replica streams (hub may be
// nil) catch up to the confirmed high-water mark before the hub's pushers
// stop. ctx bounds the whole drain.
func DrainHome(ctx context.Context, srv *http.Server, hub *ReplicaHub) error {
	var errs []error
	if err := Shutdown(ctx, srv); err != nil {
		errs = append(errs, fmt.Errorf("draining in-flight statements: %w", err))
	}
	if hub != nil {
		if err := hub.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("draining replica streams (%+v): %w", hub.Status(), err))
		}
		hub.Close()
	}
	return errors.Join(errs...)
}
