package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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
// untrusted DSSP nodes (optionally behind a shard router), and the
// application's trusted home tier. Start is the only place that picture
// is wired, so it is the one place to review where the trust boundary
// runs: Codec — the application's keys — goes to the home primaries,
// their replicas and the client, and to nothing else.
type Spec struct {
	App   *template.App
	Codec *wire.Codec

	// NewDB returns one populated master database. It is called once per
	// primary and replica and must return byte-identical copies.
	NewDB func() (*storage.Database, error)

	// Nodes DSSP nodes (at least 1) serve the application. With Router a
	// shard router fronts them, is the clients' entry point and names each
	// node by its fleet position; without, clients talk to node 0.
	Nodes  int
	Router bool

	// Partitions masters split the home tier by table group (0 = 1);
	// Replicas read replicas sit behind each, fed by its primary's hub.
	Partitions, Replicas int

	// Client's Timeout bounds every frame call between processes, and
	// Client carries what stays HTTP (ring admin, replica registration);
	// nil gets a DefaultTimeout-bounded one.
	Client *http.Client
}

// Fleet is a started Spec: every process behind its own loopback
// listener, and the live handles experiments and tests read.
type Fleet struct {
	Homes    []*homeserver.Server // partition primaries, in partition order
	Replicas [][]*home.Replica    // [partition][replica]
	Hubs     []*ReplicaHub        // per partition; nil entries without replicas
	Nodes    []*dssp.Node         // a node's registry is its Cache.Obs()
	Router   *RouterServer        // nil without Spec.Router

	HomeURLs, NodeURLs []string
	URL                string       // the clients' entry point: the router, or node 0
	Client             *Client      // the trusted application side, pointed at URL
	HTTP               *http.Client // Spec.Client, or its default

	spec     Spec
	analysis *core.Analysis
	tier     []HomeEndpoint
	stops    []func() error // in boot order; Close runs them in reverse
	once     sync.Once
	err      error
}

// Start boots the deployment back to front — per partition its replicas
// and then the primary whose hub feeds them, then nodes, then the router
// — so every process's upstream is listening before it is.
func Start(spec Spec) (*Fleet, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("httpapi: fleet needs at least one node, got %d", spec.Nodes)
	}
	homes, replicas, err := home.NewTier(spec.App, spec.Codec, spec.NewDB, max(spec.Partitions, 1), spec.Replicas)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		Homes: homes, Replicas: replicas, Hubs: make([]*ReplicaHub, len(homes)),
		HTTP: defaultClient(spec.Client), spec: spec,
		analysis: core.Analyze(spec.App, core.DefaultOptions()), tier: make([]HomeEndpoint, len(homes)),
	}
	for p, primary := range homes {
		var hub *ReplicaHub
		if spec.Replicas > 0 {
			hub = NewReplicaHub(f.HTTP, primary.Obs())
			primary.OnConfirm(hub.Confirm)
		}
		for _, rep := range replicas[p] {
			url := f.serve(ReplicaHandler(rep))
			hub.Register(url)
			f.tier[p].Replicas = append(f.tier[p].Replicas, url)
		}
		srv := httptest.NewServer(HomeHandlerWithHub(primary, hub))
		f.stops = append(f.stops, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), DefaultTimeout)
			defer cancel()
			err := DrainHome(ctx, srv.Config, hub)
			srv.Close()
			if err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			return nil
		})
		f.Hubs[p], f.tier[p].Primary = hub, srv.URL
		f.HomeURLs = append(f.HomeURLs, srv.URL)
	}
	for i := 0; i < spec.Nodes; i++ {
		f.AddNode()
	}
	f.URL = f.NodeURLs[0]
	if spec.Router {
		f.Router = NewRouterServer(f.analysis, f.NodeURLs, RouterOptions{Client: f.HTTP})
		f.URL = f.serve(f.Router.Handler())
	}
	f.Client = NewClient(spec.Codec, f.URL, f.HTTP)
	return f, nil
}

// serve puts one process's handler behind its own listener, leaves closing
// it — which returns once its in-flight requests and frames have — to
// Close, and returns the base URL.
func (f *Fleet) serve(h http.Handler) string {
	srv := httptest.NewServer(h)
	f.stops = append(f.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), DefaultTimeout)
		defer cancel()
		// httptest.Server.Close never calls Shutdown, so it would leave the
		// frame connections open.
		err := Shutdown(ctx, srv.Config)
		srv.Close()
		return err
	})
	return srv.URL
}

// AddNode stands up one more node over the same home tier and returns
// its base URL. After Start it is the elastic join's first half: the node
// serves but owns nothing until the router admits it (PathRingJoin).
func (f *Fleet) AddNode() string {
	opts := NodeOptions{Home: f.tier}
	if f.spec.Router {
		opts.NodeID = strconv.Itoa(len(f.Nodes))
	}
	node := dssp.NewNode(f.spec.App, f.analysis, cache.Options{})
	url := f.serve(NewNodeServerWithOptions(node, "", f.HTTP, opts).Handler())
	f.Nodes, f.NodeURLs = append(f.Nodes, node), append(f.NodeURLs, url)
	return url
}

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
