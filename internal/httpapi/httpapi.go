// Package httpapi provides a network deployment of the DSSP architecture:
// the caching node and the home server as HTTP services, and a client that
// seals statements locally and talks to a node. The paper's Figure 1
// topology — clients near a DSSP node, the node far from the home server —
// becomes three processes connected by HTTP.
//
// Messages are the sealed types of package wire in the wire package's own
// deterministic binary encoding, each under a one-byte kind tag
// (message.go states the envelope grammar; wire/sealed.go the sealed-
// message grammar it extends, which the migration stream of wire/bucket.go
// shares). It is the only encoding on every hop — client → router → node →
// home, the router's invalidation fan-out, node → replica, and the hub's
// apply stream — and there is no negotiation or fallback. The node never
// holds keys: it receives sealed queries, serves them from its cache or
// forwards the opaque payload to the home server, and monitors completed
// updates for invalidation, exactly as in the in-process pathway.
//
// What a sealed endpoint refuses, and how: a body whose Content-Type is
// not application/x-dssp-wire is 415 (a mixed-version fleet fails loudly
// instead of mis-decoding); a body over the endpoint's size bound is 413;
// a body the strict decoder rejects, or a staleness header that is
// present but not a number, is 400 — a garbled freshness floor must never
// silently read as "no floor".
//
// Every process exposes GET /v1/metrics — a snapshot of its obs.Registry
// in JSON (default) or the Prometheus text exposition format
// (?format=prom, or Accept: text/plain). A statement's trace ID and its
// sender's span ID travel inside the sealed message (wire.WithTrace), so
// one statement can be followed from client through node to home server.
//
// Every POST between processes is built and sent by hop.send (hop.go), the
// one request builder.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
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

// DefaultTimeout bounds each HTTP round trip when the caller does not
// supply its own http.Client: a hung home server fails the request
// instead of hanging the client forever.
const DefaultTimeout = 30 * time.Second

// retryBackoff is the pause before the single idempotent-query retry.
const retryBackoff = 100 * time.Millisecond

// defaultClient returns client, or a timeout-bounded default.
func defaultClient(client *http.Client) *http.Client {
	if client == nil {
		return &http.Client{Timeout: DefaultTimeout}
	}
	return client
}

// Paths of the HTTP API.
const (
	PathQuery           = "/v1/query"            // node and router: sealed query -> sealed result
	PathUpdate          = "/v1/update"           // node and router: sealed update -> ack
	PathInvalidate      = "/v1/invalidate"       // node: already-confirmed sealed update -> invalidation ack (router fan-out)
	PathDecisions       = "/v1/decisions"        // node: invalidation-decision log + cache dump, JSON (debugging, parity checks)
	PathMetrics         = "/v1/metrics"          // every process: metrics snapshot (JSON or Prometheus text)
	PathTrace           = "/v1/trace/"           // every process: one trace's spans, JSON ({id} appended)
	PathTraces          = "/v1/traces"           // every process: retained trace IDs, JSON
	PathBucketExport    = "/v1/buckets/export"   // node: template-ID list -> sealed bucket entries (warm handoff)
	PathBucketImport    = "/v1/buckets/import"   // node: sealed bucket entries -> imported count
	PathBucketDrop      = "/v1/buckets/drop"     // node: template-ID list -> dropped count (post-flip cleanup)
	PathRing            = "/v1/ring"             // router: current membership + epoch, JSON
	PathRingJoin        = "/v1/ring/join"        // router: admit a node URL into the ring (warm by default)
	PathRingLeave       = "/v1/ring/leave"       // router: retire a node (warm drain) or declare it dead (warm=false)
	PathExecQuery       = "/v1/exec/query"       // home primary and replicas: sealed query -> sealed result
	PathExecUpdate      = "/v1/exec/update"      // home primary: sealed update -> ack
	PathReplicaApply    = "/v1/replica/apply"    // replica: confirmed-update batch -> applied watermark
	PathReplicaStatus   = "/v1/replica/status"   // replica: applied watermark, JSON
	PathReplicaRegister = "/v1/replica/register" // home primary: subscribe a replica to the confirmed stream, JSON
	PathReplicas        = "/v1/replicas"         // home primary: registered replicas + acked sequences, JSON
)

// Staleness headers of the replicated home tier. ConfirmSeqHeader rides
// the router's invalidation fan-out: the fanned-out update's confirmed
// home sequence, which raises the target node's freshness floor.
// MinSeqHeader rides node→replica queries: the node's floor, below which
// the replica must not answer. AppliedHeader rides every replica
// response: the replica's applied watermark (on a 409 refusal it tells
// the node how far behind the replica is).
// PartitionHeader rides replica 409 refusals: the home partition whose
// stream the applied watermark positions the replica in.
const (
	ConfirmSeqHeader = "X-DSSP-Confirm-Seq"
	MinSeqHeader     = "X-DSSP-Min-Seq"
	AppliedHeader    = "X-DSSP-Replica-Applied"
	PartitionHeader  = "X-DSSP-Partition"
)

// QueryResponse is the node's answer to a sealed query.
type QueryResponse struct {
	Result wire.SealedResult
	Hit    bool
}

// UpdateResponse is the node's answer to a sealed update. Seq is the
// update's confirmed sequence in the home server's serialization order
// (0 from pre-sequencing nodes).
type UpdateResponse struct {
	Affected    int
	Invalidated int
	Seq         uint64
}

// InvalidateResponse is the node's answer to a fanned-out invalidation:
// the update was confirmed elsewhere and this node only monitored it.
type InvalidateResponse struct {
	Invalidated int
}

// DecisionsResponse is a node's invalidation-decision log and cache
// fingerprint, served as JSON from PathDecisions so deployment checks
// (the scale-out smoke test) can diff node state without process access.
type DecisionsResponse struct {
	Decisions []cache.Decision `json:"decisions"`
	Dump      []string         `json:"dump"`
	Stats     cache.Stats      `json:"stats"`
}

// BucketImportResponse is the node's answer to a migration import: how
// many sealed entries it took (keys it already held are skipped).
type BucketImportResponse struct {
	Imported int `json:"imported"`
}

// BucketDropResponse is the node's answer to a post-flip bucket drop.
type BucketDropResponse struct {
	Dropped int `json:"dropped"`
}

// ExecQueryResponse is the home server's answer to a forwarded query.
type ExecQueryResponse struct {
	Result  wire.SealedResult
	Empty   bool
	Scanned int
}

// ExecUpdateResponse is the home server's answer to a forwarded update.
type ExecUpdateResponse struct {
	Affected int
	Seq      uint64
}

// seqHeader reads an optional sequence-number header: absent is 0, but
// present and malformed is an error — the staleness headers carry
// freshness floors and watermarks, and a garbled one read as 0 would
// quietly permit exactly the stale read they exist to prevent. reg (nil
// allowed) counts the malformed ones.
func seqHeader(reg *obs.Registry, h http.Header, name string) (uint64, error) {
	v := h.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, badHeader(reg, name, v)
	}
	return n, nil
}

// badHeader counts and reports a staleness header that did not parse.
func badHeader(reg *obs.Registry, name, v string) error {
	if reg != nil {
		reg.Counter(obs.MHTTPBadHeaders).Inc()
	}
	return fmt.Errorf("httpapi: malformed %s header %q", name, v)
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

// TracesResponse lists the trace IDs a process's span store retains,
// oldest first.
type TracesResponse struct {
	Traces []string `json:"traces"`
}

// TraceHandler serves one trace's spans from a process's span store as
// JSON ({id} path parameter). Unknown or evicted traces answer 404; a
// process without a store answers 404 for everything.
func TraceHandler(store *obs.SpanStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := store.Trace(r.PathValue("id"))
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
func FetchTrace(client *http.Client, baseURL, traceID string) ([]obs.SpanRecord, error) {
	client = defaultClient(client)
	resp, err := client.Get(baseURL + PathTrace + traceID)
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
func StitchFleet(client *http.Client, baseURLs []string, traceID string, local []obs.SpanRecord) (obs.StitchedTrace, error) {
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

// FetchMetrics retrieves a process's /v1/metrics snapshot as JSON.
func FetchMetrics(client *http.Client, baseURL string) (obs.Snapshot, error) {
	client = defaultClient(client)
	var snap obs.Snapshot
	resp, err := client.Get(baseURL + PathMetrics)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("httpapi: %s%s: %s", baseURL, PathMetrics, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// HomeHandler exposes a home server over HTTP, including its metrics and
// traces. Building the handler attaches a span store to the home tracer,
// so the home-side spans (admission_wait, home_exec) of every trace are
// servable; call it after SetObs, which replaces the tracer.
func HomeHandler(home *homeserver.Server) http.Handler {
	return HomeHandlerWithHub(home, nil)
}

// HomeHandlerWithHub is HomeHandler for a primary fronting read replicas:
// hub (non-nil) adds the replica-registration endpoints, and registered
// replicas receive every update the moment it is confirmed.
func HomeHandlerWithHub(home *homeserver.Server, hub *ReplicaHub) http.Handler {
	home.Tracer().SetStore(obs.NewSpanStore(0))
	mux := newMux(home.Obs(), home.Tracer().Store())
	mux.HandleFunc("POST "+PathExecQuery, func(w http.ResponseWriter, r *http.Request) {
		var sq wire.SealedQuery
		if !readMessage(w, r, maxMessageBytes, (*queryMsg)(&sq)) {
			return
		}
		res, empty, scanned, err := home.ExecQuery(sq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeMessage(home.Obs(), w, &ExecQueryResponse{Result: res, Empty: empty, Scanned: scanned})
	})
	mux.HandleFunc("POST "+PathExecUpdate, func(w http.ResponseWriter, r *http.Request) {
		var su wire.SealedUpdate
		if !readMessage(w, r, maxMessageBytes, (*updateMsg)(&su)) {
			return
		}
		n, seq, err := home.ExecUpdate(su)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeMessage(home.Obs(), w, &ExecUpdateResponse{Affected: n, Seq: seq})
	})
	if hub != nil {
		mux.HandleFunc("POST "+PathReplicaRegister, func(w http.ResponseWriter, r *http.Request) {
			var req ReplicaRegisterRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
				http.Error(w, "replica register: need JSON body {\"url\": ...}", http.StatusBadRequest)
				return
			}
			hub.Register(req.URL)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(hub.Status())
		})
		mux.HandleFunc("GET "+PathReplicas, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(hub.Status())
		})
	}
	return mux
}

// NodeServer serves an application's traffic from a DSSP node through the
// shared pipeline, forwarding misses and updates to the home server over
// HTTP.
type NodeServer struct {
	Node *dssp.Node

	// Reg is the node's registry — shared with the node's cache — and
	// Tracer records the node-side stages (cache_lookup, network,
	// invalidate) against wall time.
	Reg    *obs.Registry
	Tracer *obs.Tracer

	// Pipe is the node's query/update pathway: the same pipeline the
	// in-process client and the simulator route through, here over an
	// HTTP transport with per-request contexts and timeouts.
	Pipe *pipeline.Pipeline
}

// httpTransport forwards sealed messages to the home server over HTTP.
// Queries are idempotent and retried once on connection errors; updates
// are not.
type httpTransport struct {
	query, update *hop
	reg           *obs.Registry
}

func newHTTPTransport(client *http.Client, homeURL string, reg *obs.Registry) httpTransport {
	return httpTransport{
		query:  newHop(client, homeURL+PathExecQuery, wireContentTypeValue),
		update: newHop(client, homeURL+PathExecUpdate, wireContentTypeValue),
		reg:    reg,
	}
}

func (t httpTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	var exec ExecQueryResponse
	err := t.query.post(ctx, "", "", (*queryMsg)(&sq), &exec, true, t.reg)
	done(pipeline.ExecQueryResult{Result: exec.Result, Empty: exec.Empty, Scanned: exec.Scanned}, err)
}

func (t httpTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	var exec ExecUpdateResponse
	err := t.update.post(ctx, "", "", (*updateMsg)(&su), &exec, false, t.reg)
	done(pipeline.ExecUpdateResult{Affected: exec.Affected, Seq: exec.Seq}, err)
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
	// partition in partition order; empty means the homeURL argument
	// alone. Updates go to the owning partition's primary; misses spread
	// across that partition's replicas, subject to the node's freshness
	// floor, with primary fallback when a replica lags or fails. With
	// more than one partition, statements route to the partition owning
	// their table group and the floor becomes a per-partition vector.
	Home []HomeEndpoint
}

// HomeEndpoint is one home partition as a node sees it: the primary's
// base URL and the base URLs of its read replicas (none = every miss
// goes to the primary).
type HomeEndpoint struct {
	Primary  string
	Replicas []string
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
		parts[p].Primary = newHTTPTransport(client, ep.Primary, reg)
		for _, ru := range ep.Replicas {
			parts[p].Replicas = append(parts[p].Replicas, pipeline.ReplicaEndpoint{
				Name: ru, Backend: newReplicaProxy(client, ru, p, reg)})
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

// Handler returns the node's HTTP API.
func (s *NodeServer) Handler() http.Handler {
	mux := newMux(s.Reg, s.Tracer.Store())
	serveFront(mux, shard.PipeBackend{Pipe: s.Pipe}, s.Reg)
	mux.HandleFunc("POST "+PathInvalidate, s.handleInvalidate)
	mux.HandleFunc("POST "+PathBucketExport, s.handleBucketExport)
	mux.HandleFunc("POST "+PathBucketImport, s.handleBucketImport)
	mux.HandleFunc("POST "+PathBucketDrop, s.handleBucketDrop)
	mux.HandleFunc("GET "+PathDecisions, s.handleDecisions)
	return mux
}

// newMux starts a process's HTTP API with its observability routes: the
// registry's metrics snapshot and the span store's traces. Every process
// — home, replica, node, router — builds its mux here.
func newMux(reg *obs.Registry, store *obs.SpanStore) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET "+PathMetrics, MetricsHandler(reg))
	mux.Handle("GET "+PathTraces, TraceIDsHandler(store))
	mux.Handle("GET "+PathTrace+"{id}", TraceHandler(store))
	return mux
}

// serveFront serves sealed statements from front — a node's pipeline or
// the shard router, which is why a client cannot tell the two apart. A
// front that fails answers 502: the statement did not get through.
func serveFront(mux *http.ServeMux, front pipeline.Front, reg *obs.Registry) {
	mux.HandleFunc("POST "+PathQuery, func(w http.ResponseWriter, r *http.Request) {
		var sq wire.SealedQuery
		if !readMessage(w, r, maxMessageBytes, (*queryMsg)(&sq)) {
			return
		}
		res, hit, err := front.Query(r.Context(), sq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeMessage(reg, w, &QueryResponse{Result: res, Hit: hit})
	})
	mux.HandleFunc("POST "+PathUpdate, func(w http.ResponseWriter, r *http.Request) {
		var su wire.SealedUpdate
		if !readMessage(w, r, maxMessageBytes, (*updateMsg)(&su)) {
			return
		}
		affected, invalidated, seq, err := front.Update(r.Context(), su)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeMessage(reg, w, &UpdateResponse{Affected: affected, Invalidated: invalidated, Seq: seq})
	})
}

// handleInvalidate monitors an update that was already confirmed at the
// home server through some other node: the shard router's pruned
// invalidation fan-out. The node never re-executes it — the sealed update
// goes straight into the pipeline's invalidation monitor, joining the
// current batch when a monitoring interval is configured.
func (s *NodeServer) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var su wire.SealedUpdate
	if !readMessage(w, r, maxMessageBytes, (*updateMsg)(&su)) {
		return
	}
	// The fan-out's staleness header carries the update's confirmed home
	// sequence; it raises this node's freshness floor (when the node
	// fronts replicas) before invalidation runs, so no later miss is
	// served by a replica that hasn't applied the update.
	seq, err := seqHeader(s.Reg, r.Header, ConfirmSeqHeader)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n, err := shard.PipeBackend{Pipe: s.Pipe}.Invalidate(r.Context(), su, seq)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	}
	writeMessage(s.Reg, w, &InvalidateResponse{Invalidated: n})
}

// handleBucketExport streams the named template buckets' sealed entries
// out for a warm handoff. The request body is a wire template-ID list,
// the response the wire migration encoding — no keys, nothing the node
// did not already hold sealed.
func (s *NodeServer) handleBucketExport(w http.ResponseWriter, r *http.Request) {
	body := getBuf()
	defer putBuf(body)
	if !readBody(w, r, maxMessageBytes, body) {
		return
	}
	ids, err := wire.DecodeTemplateIDs(body.b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	entries := s.Node.Cache.ExportBuckets(ids)
	w.Header()["Content-Type"] = bytesContentTypeValue
	if _, err := w.Write(wire.AppendBucketEntries(nil, entries)); err != nil {
		slog.Warn("httpapi: bucket export write failed", "entries", len(entries), "err", err)
		s.Reg.Counter(obs.MHTTPWriteErrors).Inc()
	}
}

// handleBucketImport takes migrated sealed entries into the node's cache.
func (s *NodeServer) handleBucketImport(w http.ResponseWriter, r *http.Request) {
	body := getBuf()
	defer putBuf(body)
	if !readBody(w, r, maxBatchBytes, body) {
		return
	}
	entries, err := wire.DecodeBucketEntries(body.b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(BucketImportResponse{Imported: s.Node.Cache.ImportBuckets(entries)})
}

// handleBucketDrop removes migrated buckets after the epoch flip.
func (s *NodeServer) handleBucketDrop(w http.ResponseWriter, r *http.Request) {
	body := getBuf()
	defer putBuf(body)
	if !readBody(w, r, maxMessageBytes, body) {
		return
	}
	ids, err := wire.DecodeTemplateIDs(body.b)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(BucketDropResponse{Dropped: s.Node.Cache.DropBuckets(ids)})
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
