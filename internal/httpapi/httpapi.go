// Package httpapi provides a network deployment of the DSSP architecture:
// the caching node and the home server as HTTP services, and a client that
// seals statements locally and talks to a node. The paper's Figure 1
// topology — clients near a DSSP node, the node far from the home server —
// becomes three processes connected by HTTP.
//
// Messages are the sealed types of package wire in the wire package's own
// deterministic binary encoding, in envelopes named by their frame's op and
// direction alone, with every sequence number in the frame header
// (message.go states the envelope grammar; wire/sealed.go the sealed-
// message grammar it extends, and wire/bucket.go the migration grammar).
// They travel as frames (frame.go) on one persistent connection per peer,
// opened by an HTTP Upgrade on the listener every process serves — client
// → router → node → home, the router's invalidation fan-out and bucket
// migration, node → replica, and the hub's apply stream — or, from a
// sender whose http.Client has a RoundTripper of its own, one frame per
// POST through it; there is no negotiation. The node never holds keys: it
// receives sealed queries, serves them from its cache or forwards the
// opaque payload to the home server, monitors completed updates for
// invalidation, exactly as in the in-process pathway, and hands sealed
// buckets over when the ring changes.
//
// What a server refuses, and how: a request for PathFrames that neither
// upgrades nor POSTs a frame is 426, and a POST whose body is not one
// frame 400 (a mixed-version fleet fails loudly instead of
// mis-decoding); a frame over its op's size bound is answered too large
// and ends the connection; a frame whose header or message the strict
// decoder rejects — a staleness field that is not a minimal uvarint
// included, since a garbled freshness floor must never silently read as
// "no floor" — is answered bad request.
//
// HTTP itself stays only for JSON that people and tools read: every
// process exposes GET /v1/metrics — a snapshot of its obs.Registry in JSON
// (default) or the Prometheus text exposition format (?format=prom, or
// Accept: text/plain) — and its traces; a node its decision log; a router
// its ring admin; a primary its replicas' hello and positions, a replica
// its status. Every POST route decodes a JSON body of at most maxAdminBytes
// through decodeAdmin. A statement's trace ID and its sender's span ID
// travel inside the sealed message (wire.WithTrace), so one statement can
// be followed from client through node to home server.
//
// Every frame between processes is sent by hop.send (hop.go) and answered
// by one frame dispatcher (frameOps.answer, frame.go).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // the handlers ServePprof serves
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dssp/internal/cache"
	"dssp/internal/dssp"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// DefaultTimeout bounds each call between processes when the caller does
// not supply its own http.Client: a hung home server fails the request
// instead of hanging the client forever.
const DefaultTimeout = 30 * time.Second

// retryBackoff is the pause before the single retry of an idempotent call.
const retryBackoff = 100 * time.Millisecond

// defaultClient returns client, or a timeout-bounded default.
func defaultClient(client *http.Client) *http.Client {
	if client == nil {
		return &http.Client{Timeout: DefaultTimeout}
	}
	return client
}

// Routes of the HTTP API beside PathFrames, the one binary route.
const (
	PathDecisions       = "/v1/decisions"        // node: invalidation-decision log + cache dump, JSON (debugging, parity checks)
	PathMetrics         = "/v1/metrics"          // every process: metrics snapshot (JSON or Prometheus text)
	PathTrace           = "/v1/trace/"           // every process: one trace's spans, JSON ({id} appended)
	PathTraces          = "/v1/traces"           // every process: retained trace IDs, JSON
	PathRing            = "/v1/ring"             // router: current membership + epoch, JSON
	PathRingJoin        = "/v1/ring/join"        // router: admit a node URL into the ring (warm by default)
	PathRingLeave       = "/v1/ring/leave"       // router: retire a node (warm drain) or declare it dead (warm=false)
	PathReplicaStatus   = "/v1/replica/status"   // replica: applied watermark, JSON
	PathReplicaRegister = "/v1/replica/register" // home primary: a listed replica's hello, resending its stream, JSON
	PathReplicas        = "/v1/replicas"         // home primary: its replicas + acked sequences, JSON
)

// DecisionsResponse is a node's invalidation-decision log and cache
// fingerprint, served as JSON from PathDecisions so deployment checks
// (the scale-out smoke test) can diff node state without process access.
type DecisionsResponse struct {
	Decisions []cache.Decision `json:"decisions"`
	Dump      []string         `json:"dump"`
	Stats     cache.Stats      `json:"stats"`
}

// maxAdminBytes bounds the JSON body of an admin request (ring join and
// leave, a replica's hello): a URL and a flag or two.
const maxAdminBytes = 4 << 10

// decodeAdmin decodes an admin request's JSON body into v. On failure it
// has answered — 413 for a body over maxAdminBytes, 400 with usage for one
// that is not the JSON asked for — and returns false.
func decodeAdmin(w http.ResponseWriter, r *http.Request, v any, usage string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("%s: body over %d bytes", usage, maxAdminBytes), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, usage, http.StatusBadRequest)
	}
	return false
}

// MetricsHandler serves a registry snapshot: JSON by default, Prometheus
// text exposition format when ?format=prom is given or the Accept header
// asks for text/plain.
func MetricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		format := r.URL.Query().Get("format")
		accept := r.Header.Get("Accept")
		if format == "prom" || format == "prometheus" ||
			(format == "" && (strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics"))) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = snap.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
	})
}

// ServePprof serves net/http/pprof's handlers, which its import registers
// on http.DefaultServeMux, on a listener of their own at addr (empty: not
// at all), so profiling never shares a port with sealed traffic. It is the
// -pprof flag of every server binary.
func ServePprof(logger *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			logger.Error("pprof serve failed", "err", err)
		}
	}()
}

// Serve is every server binary's life: it listens on addr, serves h
// until SIGTERM or SIGINT, and then stops through stop — Shutdown, or a
// primary's DrainHome — under timeout, so the frames in flight are
// answered rather than cut. It returns the listen or serve error, or
// stop's.
func Serve(logger *slog.Logger, addr string, h http.Handler, timeout time.Duration, stop func(context.Context, *http.Server) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	select {
	case err := <-served:
		return err
	case sig := <-sigs:
		logger.Info("signal received; shutting down", "signal", sig.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return stop(ctx, srv)
}

// TracesResponse lists the trace IDs a process's span store retains,
// oldest first.
type TracesResponse struct {
	Traces []obs.TraceID `json:"traces"`
}

// TraceHandler serves one trace's spans from a process's span store as
// JSON ({id} path parameter, a trace ID's text). Unknown, evicted and
// malformed traces answer 404; a process without a store answers 404 for
// everything.
func TraceHandler(store *obs.SpanStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := obs.ParseTraceID(r.PathValue("id"))
		var spans []obs.SpanRecord
		if err == nil {
			spans = store.Trace(id)
		}
		if len(spans) == 0 {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(spans)
	})
}

// TraceIDsHandler serves the span store's retained trace IDs as JSON.
func TraceIDsHandler(store *obs.SpanStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(TracesResponse{Traces: store.TraceIDs(obs.DefaultStoreTraces)})
	})
}

// FetchTrace retrieves one trace's spans from a process's /v1/trace
// endpoint. A 404 (trace unknown there) returns an empty slice and no
// error, so callers can sweep a whole fleet and stitch what they get.
func FetchTrace(client *http.Client, baseURL string, traceID obs.TraceID) ([]obs.SpanRecord, error) {
	client = defaultClient(client)
	resp, err := client.Get(baseURL + PathTrace + traceID.String())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpapi: %s%s%s: %s", baseURL, PathTrace, traceID, resp.Status)
	}
	var spans []obs.SpanRecord
	err = json.NewDecoder(resp.Body).Decode(&spans)
	return spans, err
}

// StitchFleet fetches one trace from every process of a fleet (client-
// side spans may be passed in local) and stitches the union into one
// tree. Processes that never saw the trace contribute nothing.
func StitchFleet(client *http.Client, baseURLs []string, traceID obs.TraceID, local []obs.SpanRecord) (obs.StitchedTrace, error) {
	all := append([]obs.SpanRecord(nil), local...)
	for _, base := range baseURLs {
		spans, err := FetchTrace(client, base, traceID)
		if err != nil {
			return obs.StitchedTrace{}, err
		}
		all = append(all, spans...)
	}
	stitched := obs.Stitch(all)
	if len(stitched) == 0 {
		return obs.StitchedTrace{Trace: traceID}, nil
	}
	return stitched[0], nil
}

// HomeHandler exposes a home server over HTTP, including its metrics and
// traces. Building the handler attaches a span store to the home tracer,
// so the home-side spans (admission_wait, home_exec) of every trace are
// servable; call it after SetObs, which replaces the tracer.
func HomeHandler(home *homeserver.Server) http.Handler { return homeMux(home) }

// homeMux is HomeHandler's mux, which PrimaryHandler adds routes to.
func homeMux(home *homeserver.Server) *http.ServeMux {
	home.Tracer().SetStore(obs.NewSpanStore(0))
	ids := home.App.IDs()
	mux := newMux(home.Obs(), home.Tracer().Store(), &frameOps{
		OpExecQuery: func(_ context.Context, req, resp *frame) {
			sq, err := readExecQuery(req.body)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			a, err := home.ExecQuery(sq)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			// The answer is lent from the home's scratch: it is appended
			// before the scratch goes back.
			resp.body = (&execQueryMsg{Result: a.Result, Empty: a.Empty}).appendWire(resp.body)
			a.Release()
		},
		// An update is read in place, as a node reads it: the home reads
		// the payload and the trace fields, and lends the whole update to
		// its confirmation sink, which copies it if it keeps it
		// (ReplicaHub.Confirm).
		OpExecUpdate: func(_ context.Context, req, resp *frame) {
			su, err := wire.ReadSealedUpdate(req.body, ids)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			n, seq, err := home.ExecUpdate(su)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			resp.seq = seq
			resp.body = (*countMsg)(&n).appendWire(resp.body)
		},
	})
	return mux
}

// PrimaryHandler is HomeHandler for partition p's primary as t describes
// it: when t lists replicas for p, hub streams the primary's confirmed
// updates to exactly those from now on, and the handler serves their hello
// and positions. A hello from a URL the hub does not stream to is refused
// with 403 and starts nothing: no caller of the listener can subscribe
// itself to the confirmed sealed updates.
func (t Topology) PrimaryHandler(p int, primary *homeserver.Server, client *http.Client) (http.Handler, *ReplicaHub) {
	mux := homeMux(primary)
	if len(t.Home[p].Replicas) == 0 {
		return mux, nil
	}
	hub := NewReplicaHub(client, primary.Obs(), t.Home[p].Replicas)
	primary.OnConfirm(hub.Confirm)
	mux.HandleFunc("POST "+PathReplicaRegister, func(w http.ResponseWriter, r *http.Request) {
		const usage = "replica register: need JSON body {\"url\": ...}"
		var req ReplicaRegisterRequest
		if !decodeAdmin(w, r, &req, usage) {
			return
		}
		if req.URL == "" {
			http.Error(w, usage, http.StatusBadRequest)
			return
		}
		if !hub.Resend(req.URL) {
			http.Error(w, fmt.Sprintf("replica register: the topology lists no replica %s here", req.URL), http.StatusForbidden)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(hub.Status())
	})
	mux.HandleFunc("GET "+PathReplicas, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(hub.Status())
	})
	return mux, hub
}

// readExecQuery reads an exec query frame's statement in place, as far as
// a home reads it (wire.ReadQueryPayload): homeserver.Server.ExecQuery
// reads the trace fields and the payload alone, and is done with them when
// it returns, so the payload is lent from the frame and no string of the
// statement is read. It allocates nothing.
func readExecQuery(body []byte) (wire.SealedQuery, error) {
	return wire.ReadQueryPayload(body)
}

// NodeServer serves an application's traffic from a DSSP node through the
// shared pipeline, forwarding misses and updates to the home server over
// frames.
type NodeServer struct {
	Node *dssp.Node

	// Reg is the node's registry — shared with the node's cache — and
	// Tracer records the node-side stages (cache_lookup, network,
	// invalidate) against wall time.
	Reg    *obs.Registry
	Tracer *obs.Tracer

	// Pipe is the node's query/update pathway: the same pipeline the
	// in-process client and the simulator route through, here over a
	// framed transport with per-request contexts and timeouts.
	Pipe *pipeline.Pipeline
}

// homeTransport forwards sealed messages to a home primary over its hop.
// Queries are idempotent and retried once on a connection failure;
// updates are not.
type homeTransport struct{ home *hop }

func (t homeTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	execQuery(ctx, t.home, &sq, 0, done)
}

func (t homeTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	done(execUpdate(ctx, t.home, &su))
}

// execUpdate sends one exec update to a home primary over h.
func execUpdate(ctx context.Context, h *hop, su *wire.SealedUpdate) (res pipeline.ExecUpdateResult, err error) {
	k := takeCall()
	defer k.release()
	k.out = (*updateMsg)(su).appendWire(k.out)
	var body []byte
	if body, res.Seq, err = h.send(ctx, k, OpExecUpdate, 0); err == nil {
		err = h.decoded((*countMsg)(&res.Affected).decodeWire(body))
	}
	return res, err
}

// execQuery sends one exec query to a home primary or replica over h, with
// floor — the node's freshness floor, 0 for a primary — as its staleness
// value, and hands done the answer as it lies in the answer frame, before
// the frame's buffer goes back to the pool: the result is lent for done's
// call (pipeline.Transport), and the node's cache copies what it keeps. A
// replica's answer carries its applied watermark, a primary's 0.
func execQuery(ctx context.Context, h *hop, sq *wire.SealedQuery, floor uint64, done func(pipeline.ExecQueryResult, error)) {
	k := takeCall()
	defer k.release()
	k.out = (*queryMsg)(sq).appendWire(k.out)
	var res pipeline.ExecQueryResult
	body, applied, err := h.send(ctx, k, OpExecQuery, floor)
	if err == nil {
		err = h.decoded((*execQueryMsg)(&res).readWire(body))
	}
	res.Applied = applied
	done(res, err)
}

// NodeOptions tune a node server beyond its wiring.
type NodeOptions struct {
	// MonitorInterval batches the node's invalidation per monitoring
	// interval: confirmed updates accumulate and are applied to the cache
	// together when the interval expires, amortizing bucket walks. 0
	// invalidates inline per update.
	MonitorInterval time.Duration

	// NodeID labels this node's spans in stitched traces (fleet member
	// name; empty for a singleton deployment).
	NodeID string

	// Home describes the trusted tier this node fronts, one endpoint per
	// partition in partition order (Topology.Home); empty means the
	// homeURL argument alone. Updates go to the owning partition's
	// primary; misses spread across that partition's replicas, subject to
	// the node's freshness floor, with primary fallback when a replica
	// lags or fails. With more than one partition, statements route to
	// the partition owning their table group and the floor becomes a
	// per-partition vector.
	Home []HomeEndpoint
}

// NewNodeServerWithOptions wires a node to its home tier: opts.Home, or
// the single server at homeURL when that is empty. The server adopts the
// node cache's registry so cache counters and node-side stage histograms
// appear in one /v1/metrics snapshot. A nil client gets a
// DefaultTimeout-bounded one.
func NewNodeServerWithOptions(node *dssp.Node, homeURL string, client *http.Client, opts NodeOptions) *NodeServer {
	reg := node.Cache.Obs()
	tracer := obs.NewTracer(reg, obs.WallClock()).
		SetIdentity(obs.ProcNode, opts.NodeID).
		SetStore(obs.NewSpanStore(0))
	tier := opts.Home
	if len(tier) == 0 {
		tier = []HomeEndpoint{{Primary: homeURL}}
	}
	parts := make([]pipeline.TierPart, len(tier))
	for p, ep := range tier {
		parts[p].Primary = homeTransport{newHop(client, ep.Primary, reg)}
		for _, ru := range ep.Replicas {
			parts[p].Replicas = append(parts[p].Replicas, pipeline.ReplicaEndpoint{
				Name: ru, Backend: newReplicaProxy(client, ru, reg)})
		}
	}
	transport, fresh := pipeline.NewTierTransport(parts, reg)
	return &NodeServer{
		Node:   node,
		Reg:    reg,
		Tracer: tracer,
		Pipe:   pipeline.New(node, transport, tracer, pipeline.Options{MonitorInterval: opts.MonitorInterval, Fresh: fresh}),
	}
}

// Handler returns the node's HTTP API: the node as a shard.Backend over
// frames, and its decision log.
func (s *NodeServer) Handler() http.Handler {
	mux := newMux(s.Reg, s.Tracer.Store(), serveBackend(shard.PipeBackend{Pipe: s.Pipe, Buckets: s.Node.Cache}, s.Node.App.IDs()))
	mux.HandleFunc("GET "+PathDecisions, s.handleDecisions)
	return mux
}

// newMux starts a process's HTTP API: the statement frames it serves, ops,
// on PathFrames, and its observability routes — the registry's metrics
// snapshot and the span store's traces. Every process — home, replica,
// node, router — builds its mux here.
func newMux(reg *obs.Registry, store *obs.SpanStore, ops *frameOps) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle(PathFrames, &frameServer{ops: ops, reg: reg})
	mux.Handle("GET "+PathMetrics, MetricsHandler(reg))
	mux.Handle("GET "+PathTraces, TraceIDsHandler(store))
	mux.Handle("GET "+PathTrace+"{id}", TraceHandler(store))
	return mux
}

// serveFront is the one place sealed statements are served from: a front
// — a node's pipeline or the shard router, which is why a client cannot
// tell the two apart — behind the query and update frames. A front that
// fails answers bad gateway: the statement did not get through. The shard
// router is served bytes: it routes each statement from its head and
// forwards it as it came (forwardQuery, forwardUpdate). Every other front
// is handed a query read in place (wire.ReadSealedQuery: its template ID
// interned against ids, the application's, and its key, its parameters,
// still encoded until a miss copies and decodes them, and its payload lent
// from the frame — pipeline.Front), and answers into the answer frame
// (queryReply); an update it is handed read in place too
// (wire.ReadSealedUpdate: its parameters encoded and its payload lent
// until the pipeline's update call copies them).
func serveFront(front pipeline.Front, ids map[string]string) *frameOps {
	router, forwards := front.(*shard.Router)
	return &frameOps{
		OpQuery: func(ctx context.Context, req, resp *frame) {
			if forwards {
				forwardQuery(ctx, router, req, resp)
				return
			}
			sq, err := wire.ReadSealedQuery(req.body, ids)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			if err := front.Query(ctx, sq, (*queryReply)(resp)); err != nil {
				resp.fail(statusBadGateway, err)
			}
		},
		OpUpdate: func(ctx context.Context, req, resp *frame) {
			if forwards {
				forwardUpdate(ctx, router, req, resp)
				return
			}
			su, err := wire.ReadSealedUpdate(req.body, ids)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			affected, invalidated, seq, err := front.Update(ctx, su)
			if err != nil {
				resp.fail(statusBadGateway, err)
				return
			}
			resp.seq = seq
			resp.body = (&updateAnswer{affected: affected, invalidated: invalidated}).appendWire(resp.body)
		},
	}
}

// queryReply is a query frame's answer under construction, as the
// pipeline.Replier a front answers into: the result is appended to the
// frame while it is lent.
type queryReply frame

func (f *queryReply) Reply(res wire.SealedResult, hit bool) {
	f.body = (&queryAnswer{result: res, hit: hit}).appendWire(f.body)
}

// serveBackend is everything a node serves over frames: a shard.Backend,
// whose other end is NodeProxy — serveFront's query and update, the
// router's invalidation fan-out, and the three bucket migration ops. A
// backend that fails an invalidation answers bad gateway, like a front; one
// that fails a bucket op (it has no bucket store) answers failed.
//
// An invalidation-only frame — the shard router's pruned fan-out — is an
// update already confirmed at the home server through some other node.
// The node never re-executes it: the sealed update goes straight into the
// pipeline's invalidation monitor, joining the current batch when a
// monitoring interval is configured. The frame's seq is the update's
// confirmed home sequence; it raises the node's freshness floor (when the
// node fronts replicas) before invalidation runs, so no later miss is
// served by a replica that has not applied the update.
//
// The bucket ops move sealed entries between nodes when the ring changes:
// what travels is ciphertext and routing metadata the node already held,
// so the router warms a new owner without a key.
func serveBackend(b shard.Backend, ids map[string]string) *frameOps {
	ops := serveFront(b, ids)
	ops[OpInvalidate] = func(ctx context.Context, req, resp *frame) {
		su, err := wire.ReadSealedUpdate(req.body, ids)
		if err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		n, err := b.Invalidate(ctx, su, req.seq)
		if err != nil {
			resp.fail(statusBadGateway, err)
			return
		}
		resp.body = (*countMsg)(&n).appendWire(resp.body)
	}
	ops[OpBucketExport] = func(ctx context.Context, req, resp *frame) {
		var ids bucketIDsMsg
		if err := ids.decodeWire(req.body); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		entries, err := b.ExportBuckets(ctx, ids)
		if err != nil {
			resp.fail(statusFailed, err)
			return
		}
		resp.body = (*bucketEntriesMsg)(&entries).appendWire(resp.body)
	}
	ops[OpBucketImport] = func(ctx context.Context, req, resp *frame) {
		var entries bucketEntriesMsg
		if err := entries.readWire(req.body, ids); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		n, err := b.ImportBuckets(ctx, entries)
		if err != nil {
			resp.fail(statusFailed, err)
			return
		}
		resp.body = (*countMsg)(&n).appendWire(resp.body)
	}
	ops[OpBucketDrop] = func(ctx context.Context, req, resp *frame) {
		var ids bucketIDsMsg
		if err := ids.decodeWire(req.body); err != nil {
			resp.fail(statusBadRequest, err)
			return
		}
		n, err := b.DropBuckets(ctx, ids)
		if err != nil {
			resp.fail(statusFailed, err)
			return
		}
		resp.body = (*countMsg)(&n).appendWire(resp.body)
	}
	return ops
}

// handleDecisions serves the node's decision log, cache dump, and counter
// snapshot as JSON.
func (s *NodeServer) handleDecisions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(DecisionsResponse{
		Decisions: s.Node.Cache.Decisions(),
		Dump:      s.Node.Cache.Dump(),
		Stats:     s.Node.Cache.Stats(),
	})
}

// Client is the trusted application side talking to a remote DSSP node or
// router: a dssp.Client whose Front is a NodeProxy to NodeURL, so a query
// is retried once on a connection error and an update never is.
type Client struct {
	Codec   *wire.Codec
	NodeURL string // the node's (or router's) base URL, as given to NewClient

	// Tracer, when set before the first statement, records the trusted-
	// side stages (seal, open), and its registry counts retries. nil
	// disables client-side tracing; the node and home server instrument
	// their own sides regardless.
	Tracer *obs.Tracer

	http *http.Client
	once sync.Once
	c    *dssp.Client
}

// NewClient builds a remote client. A nil httpClient gets a
// DefaultTimeout-bounded one.
func NewClient(codec *wire.Codec, nodeURL string, httpClient *http.Client) *Client {
	return &Client{Codec: codec, NodeURL: nodeURL, http: httpClient}
}

// client returns the trusted client, built on first use so that it takes
// the Tracer set after NewClient.
func (c *Client) client() *dssp.Client {
	c.once.Do(func() {
		c.c = &dssp.Client{Codec: c.Codec, Tracer: c.Tracer,
			Front: NewNodeProxy(c.NodeURL, c.http, c.Tracer.Registry())}
	})
	return c.c
}

// Query runs one query template instance through the remote node. The
// context bounds the round trip.
func (c *Client) Query(ctx context.Context, t *template.Template, params ...interface{}) (*dssp.QueryResult, error) {
	return c.client().QueryContext(ctx, t, params...)
}

// Update routes one update through the remote node. The context bounds
// the round trip.
func (c *Client) Update(ctx context.Context, t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	return c.client().UpdateContext(ctx, t, params...)
}
