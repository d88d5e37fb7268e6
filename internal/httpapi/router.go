package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/shard"
	"dssp/internal/wire"
)

// NodeProxy is the HTTP deployment's shard.Backend: one remote dsspnode
// process, every call a frame on the one connection to it, answered by the
// node's serveBackend. Queries, invalidations and the bucket ops are
// idempotent and ride the hop's retry (one retry with backoff after a
// connection failure — replaying an invalidation against already-emptied
// buckets is a no-op); updates are never retried, because a lost ack does
// not prove the update was not applied.
type NodeProxy struct{ frames *hop }

// NewNodeProxy points a proxy at one node's base URL. A nil client gets a
// DefaultTimeout-bounded one; reg (nil allowed) counts retries.
func NewNodeProxy(url string, client *http.Client, reg *obs.Registry) NodeProxy {
	return NodeProxy{frames: newHop(client, url, reg)}
}

// Query proxies a sealed query to the node.
func (p NodeProxy) Query(ctx context.Context, sq wire.SealedQuery) (wire.SealedResult, bool, error) {
	k := takeCall()
	defer k.release()
	k.out = (*queryMsg)(&sq).appendWire(k.out)
	var resp queryAnswer
	body, _, err := p.frames.send(ctx, k, OpQuery, 0)
	if err == nil {
		err = p.frames.decoded(resp.decodeWire(body))
	}
	return resp.result, resp.hit, err
}

// Update proxies a sealed update through the node's full update pathway
// and relays the home server's confirmed sequence back to the router.
func (p NodeProxy) Update(ctx context.Context, su wire.SealedUpdate) (int, int, uint64, error) {
	k := takeCall()
	k.out = (*updateMsg)(&su).appendWire(k.out)
	return p.update(ctx, k)
}

// update sends the update k holds, and releases k.
func (p NodeProxy) update(ctx context.Context, k *call) (int, int, uint64, error) {
	defer k.release()
	var resp updateAnswer
	body, seq, err := p.frames.send(ctx, k, OpUpdate, 0)
	if err == nil {
		err = p.frames.decoded(resp.decodeWire(body))
	}
	return resp.affected, resp.invalidated, seq, err
}

// Invalidate pushes an already-confirmed update to the node's
// invalidation monitor, carrying the confirmed home sequence so the node
// raises its replica-freshness floor. Failures surface in the router's
// proxy-error counter and are returned to the fan-out's retry path.
func (p NodeProxy) Invalidate(ctx context.Context, su wire.SealedUpdate, seq uint64) (int, error) {
	k := takeCall()
	k.out = (*updateMsg)(&su).appendWire(k.out)
	return p.count(ctx, k, OpInvalidate, seq)
}

// count sends the request k holds under op, whose answer is a count —
// an invalidation, a bucket import or a bucket drop — and releases k.
func (p NodeProxy) count(ctx context.Context, k *call, op Op, seq uint64) (int, error) {
	defer k.release()
	var n countMsg
	body, _, err := p.frames.send(ctx, k, op, seq)
	if err == nil {
		err = p.frames.decoded(n.decodeWire(body))
	}
	return int(n), err
}

// ExportBuckets pulls the named template buckets' sealed entries from the
// node for a warm handoff.
func (p NodeProxy) ExportBuckets(ctx context.Context, templateIDs []string) ([]wire.BucketEntry, error) {
	k := takeCall()
	defer k.release()
	k.out = (*bucketIDsMsg)(&templateIDs).appendWire(k.out)
	var entries bucketEntriesMsg
	body, _, err := p.frames.send(ctx, k, OpBucketExport, 0)
	if err == nil {
		err = p.frames.decoded(entries.decodeWire(body))
	}
	return entries, err
}

// ImportBuckets pushes migrated sealed entries into the node's cache.
func (p NodeProxy) ImportBuckets(ctx context.Context, entries []wire.BucketEntry) (int, error) {
	k := takeCall()
	k.out = (*bucketEntriesMsg)(&entries).appendWire(k.out)
	return p.count(ctx, k, OpBucketImport, 0)
}

// DropBuckets removes migrated buckets from the node after the epoch flip.
func (p NodeProxy) DropBuckets(ctx context.Context, templateIDs []string) (int, error) {
	k := takeCall()
	k.out = (*bucketIDsMsg)(&templateIDs).appendWire(k.out)
	return p.count(ctx, k, OpBucketDrop, 0)
}

// forward is a sealed statement a router forwards as the bytes it arrived
// in: its head, read in place, and the fan-out's push for an update, bound
// to the value once when the pool makes it — a closure made per update
// would go to the heap, since the fan-out runs it on goroutines of its own.
type forward struct {
	raw  wire.Raw
	push func(ctx context.Context, b shard.Backend, route obs.Span, seq uint64) (int, error)
}

var forwards = sync.Pool{New: func() any {
	m := new(forward)
	m.push = m.invalidate
	return m
}}

func newForward() *forward { return forwards.Get().(*forward) }

// release returns m to the pool once every call it went out on has
// returned.
func (m *forward) release() {
	m.raw = wire.Raw{}
	forwards.Put(m)
}

// under returns a call holding the statement under route — its parent
// span rewritten to the route span's ID, every other byte as it came.
func (m *forward) under(route obs.Span) *call {
	k := takeCall()
	k.out = m.raw.Append(k.out, route.ID())
	return k
}

// invalidate is the fan-out's push: the update to one more node, under the
// route span of its own.
func (m *forward) invalidate(ctx context.Context, b shard.Backend, route obs.Span, seq uint64) (int, error) {
	p, err := proxyOf(b)
	if err != nil {
		return 0, err
	}
	return p.count(ctx, m.under(route), OpInvalidate, seq)
}

// forwardQuery answers a query frame at a router without decoding the
// query or the node's answer. The router routes the query from its head,
// read in place from the frame (wire.Raw.ReadQuery); the node is sent the
// frame's body with only its parent span rewritten, and the node's answer
// goes back to the client as it came — only the client, which opens the
// result, decodes it. A query the head reader refuses is bad request, one
// that does not get through bad gateway, as at any front.
func forwardQuery(ctx context.Context, r *shard.Router, req, resp *frame) {
	m := newForward()
	defer m.release()
	if err := m.raw.ReadQuery(req.body); err != nil {
		resp.fail(statusBadRequest, err)
		return
	}
	err := r.RouteQuery(ctx, &m.raw.Head, func(ctx context.Context, b shard.Backend, route obs.Span) error {
		p, err := proxyOf(b)
		if err != nil {
			return err
		}
		k := m.under(route)
		defer k.release()
		body, _, err := p.frames.send(ctx, k, OpQuery, 0)
		if err == nil {
			resp.body = append(resp.body, body...)
		}
		return err
	})
	if err != nil {
		resp.fail(statusBadGateway, err)
	}
}

// forwardUpdate answers an update frame at a router the way forwardQuery
// does a query: the exec node and every node of the fan-out are sent the
// frame's body under their own route span. The answers, two counts or one,
// are read: the router sums the fleet's invalidations.
func forwardUpdate(ctx context.Context, r *shard.Router, req, resp *frame) {
	m := newForward()
	defer m.release()
	if err := m.raw.ReadUpdate(req.body); err != nil {
		resp.fail(statusBadRequest, err)
		return
	}
	affected, invalidated, seq, err := r.RouteUpdate(ctx, &m.raw.Head,
		func(ctx context.Context, b shard.Backend, route obs.Span) (int, int, uint64, error) {
			p, err := proxyOf(b)
			if err != nil {
				return 0, 0, 0, err
			}
			return p.update(ctx, m.under(route))
		},
		m.push)
	if err != nil {
		resp.fail(statusBadGateway, err)
		return
	}
	resp.seq = seq
	resp.body = (&updateAnswer{affected: affected, invalidated: invalidated}).appendWire(resp.body)
}

// proxyOf is the node behind one of a router server's backends, every one
// of which the server built as a NodeProxy (NewRouterServer, ring join).
func proxyOf(b shard.Backend) (NodeProxy, error) {
	p, ok := b.(NodeProxy)
	if !ok {
		return NodeProxy{}, fmt.Errorf("httpapi: a %T backend cannot be forwarded bytes", b)
	}
	return p, nil
}

// RouterOptions tune a router server: the HTTP client for all node round
// trips (nil gets a DefaultTimeout-bounded one).
type RouterOptions struct {
	Client *http.Client
}

// RouterServer fronts a fleet of dsspnode processes with the shard
// router, speaking the same node API the single-node deployment does —
// clients cannot tell a router from a node, which is what lets the
// deployment scale out without touching the application. Like a node,
// the router is untrusted: it needs the application's template list (to
// precompute the fan-out plan from the public static analysis) but holds
// no keys.
type RouterServer struct {
	Router *shard.Router
	Reg    *obs.Registry
	Tracer *obs.Tracer

	// client builds NodeProxies for nodes joining after startup.
	client *http.Client

	// mu guards urls, the node URL -> ring node ID map behind the ring
	// admin endpoints. It is held across Router.Join/Leave so a concurrent
	// duplicate join of the same URL is rejected, not admitted twice.
	mu   sync.Mutex
	urls map[string]int
}

// NewRouterServer wires a router over the node base URLs, in fleet
// order. The analysis must be computed with the same options the nodes
// use, or the fan-out plan and the nodes' own invalidation would
// disagree about which templates an update can touch.
func NewRouterServer(analysis *core.Analysis, nodeURLs []string, opts RouterOptions) *RouterServer {
	client := defaultClient(opts.Client)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.WallClock()).
		SetIdentity(obs.ProcRouter, "").
		SetStore(obs.NewSpanStore(0))
	backends := make([]shard.Backend, len(nodeURLs))
	for i, url := range nodeURLs {
		backends[i] = NewNodeProxy(url, client, reg)
	}
	router := shard.NewRouter(analysis, backends, tracer)
	urls := make(map[string]int, len(nodeURLs))
	for i, url := range nodeURLs {
		urls[url] = i
	}
	return &RouterServer{
		Router: router,
		Reg:    reg,
		Tracer: tracer,
		client: client,
		urls:   urls,
	}
}

// Handler returns the router's HTTP API — the node API, served by the
// fleet.
func (s *RouterServer) Handler() http.Handler {
	mux := newMux(s.Reg, s.Tracer.Store(), serveFront(s.Router))
	mux.HandleFunc("POST "+PathRingJoin, s.handleRingJoin)
	mux.HandleFunc("POST "+PathRingLeave, s.handleRingLeave)
	mux.HandleFunc("GET "+PathRing, s.handleRing)
	return mux
}

// RingJoinRequest admits a node process into the ring by its base URL.
// Warm (default true) streams the moved sealed buckets from their old
// owners before the epoch flips; false is a cold join that earns its
// working set through misses.
type RingJoinRequest struct {
	URL  string `json:"url"`
	Warm *bool  `json:"warm,omitempty"`
}

// RingLeaveRequest retires a ring member, named by node ID or by URL.
// Warm (default true) drains the departing node's sealed buckets to
// their new owners first; false declares the node dead (a kill — its
// entries are lost and re-missed).
type RingLeaveRequest struct {
	Node *int   `json:"node,omitempty"`
	URL  string `json:"url,omitempty"`
	Warm *bool  `json:"warm,omitempty"`
}

// RingResponse is the fleet's current membership view.
type RingResponse struct {
	Epoch   uint64         `json:"epoch"`
	Members []int          `json:"members"`
	URLs    map[string]int `json:"urls"` // node URL -> ring node ID
}

// handleRingJoin admits a node into the ring. A URL that is already a
// member answers 409: joining is not idempotent (each join mints a new
// node ID), so the duplicate must be an operator error.
func (s *RouterServer) handleRingJoin(w http.ResponseWriter, r *http.Request) {
	const usage = "ring join: need JSON body {\"url\": ...}"
	var req RingJoinRequest
	if !decodeAdmin(w, r, &req, usage) {
		return
	}
	if req.URL == "" {
		http.Error(w, usage, http.StatusBadRequest)
		return
	}
	warm := req.Warm == nil || *req.Warm
	s.mu.Lock()
	defer s.mu.Unlock()
	if node, ok := s.urls[req.URL]; ok {
		http.Error(w, fmt.Sprintf("ring join: %s is already member %d", req.URL, node), http.StatusConflict)
		return
	}
	rep, err := s.Router.Join(r.Context(), NewNodeProxy(req.URL, s.client, s.Reg), warm)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	s.urls[req.URL] = rep.Node
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rep)
}

// handleRingLeave retires a member (warm drain) or declares it dead. A
// node that is not a member answers 404, like an unknown URL, and the
// fleet's last node 409; 502 is kept for a node that failed the drain.
func (s *RouterServer) handleRingLeave(w http.ResponseWriter, r *http.Request) {
	const usage = "ring leave: need JSON body {\"node\": ...} or {\"url\": ...}"
	var req RingLeaveRequest
	if !decodeAdmin(w, r, &req, usage) {
		return
	}
	if req.Node == nil && req.URL == "" {
		http.Error(w, usage, http.StatusBadRequest)
		return
	}
	warm := req.Warm == nil || *req.Warm
	s.mu.Lock()
	defer s.mu.Unlock()
	node := 0
	switch {
	case req.Node != nil:
		node = *req.Node
	default:
		n, ok := s.urls[req.URL]
		if !ok {
			http.Error(w, fmt.Sprintf("ring leave: %s is not a member", req.URL), http.StatusNotFound)
			return
		}
		node = n
	}
	rep, err := s.Router.Leave(r.Context(), node, warm)
	if err != nil {
		status := http.StatusBadGateway // a node failed the warm drain
		switch {
		case errors.Is(err, shard.ErrNotMember):
			status = http.StatusNotFound
		case errors.Is(err, shard.ErrLastNode):
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	for url, n := range s.urls {
		if n == node {
			delete(s.urls, url)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rep)
}

// handleRing serves the current membership and epoch.
func (s *RouterServer) handleRing(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	urls := make(map[string]int, len(s.urls))
	for u, n := range s.urls {
		urls[u] = n
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(RingResponse{
		Epoch:   s.Router.Epoch(),
		Members: s.Router.Members(),
		URLs:    urls,
	})
}
