package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/wire"
)

// ReplicaRegisterRequest subscribes a replica (by its base URL) to the
// primary's confirmed-update stream.
type ReplicaRegisterRequest struct {
	URL string `json:"url"`
}

// ReplicaApplyRequest is one confirmed-update batch pushed from the
// primary's hub to a replica, in the hop encoding of the sealed traffic
// it carries (message.go).
type ReplicaApplyRequest struct {
	Batch []homeserver.Confirmed
}

// ReplicaApplyResponse acknowledges an apply push with the replica's
// applied watermark — which may be behind the batch's tail if earlier
// sequences are still missing (the replica buffers the gap; the hub
// resends from the acknowledged point).
type ReplicaApplyResponse struct {
	Applied uint64
}

// ReplicaStatusResponse is a replica's applied watermark and query load,
// served as JSON from PathReplicaStatus for smoke tests and operators.
type ReplicaStatusResponse struct {
	Name    string `json:"name"`
	Applied uint64 `json:"applied"`
	Served  int    `json:"served"`
}

// ReplicaHandler exposes a home read replica over HTTP: the replica half
// of the home API (sealed queries with the staleness check, the apply
// stream's push endpoint) plus the standard metrics and trace surface.
func ReplicaHandler(rep *home.Replica) http.Handler {
	rep.Tracer().SetStore(obs.NewSpanStore(0))
	mux := newMux(rep.Obs(), rep.Tracer().Store())
	mux.HandleFunc("POST "+PathExecQuery, func(w http.ResponseWriter, r *http.Request) {
		var sq wire.SealedQuery
		if !readMessage(w, r, maxMessageBytes, (*queryMsg)(&sq)) {
			return
		}
		minSeq, err := seqHeader(rep.Obs(), r.Header, MinSeqHeader)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if applied := rep.Applied(); applied < minSeq {
			// The node's freshness floor is ahead of this replica: refuse
			// rather than serve a result that predates an update the node
			// already invalidated for. 409 keeps the refusal distinct from
			// transport failure, and the applied watermark rides back so
			// the node can stop asking until the replica catches up. The
			// partition header says whose stream the watermark counts —
			// sequences are per-partition in a partitioned home tier.
			w.Header().Set(AppliedHeader, strconv.FormatUint(applied, 10))
			w.Header().Set(PartitionHeader, strconv.Itoa(rep.Partition()))
			http.Error(w, fmt.Sprintf("replica lagging: applied %d < floor %d", applied, minSeq), http.StatusConflict)
			return
		}
		res, empty, scanned, err := rep.ExecQuery(sq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The watermark re-read can only have advanced past the check
		// above, so the header never claims more freshness than the
		// result has.
		w.Header().Set(AppliedHeader, strconv.FormatUint(rep.Applied(), 10))
		writeMessage(rep.Obs(), w, &ExecQueryResponse{Result: res, Empty: empty, Scanned: scanned})
	})
	mux.HandleFunc("POST "+PathReplicaApply, func(w http.ResponseWriter, r *http.Request) {
		var req ReplicaApplyRequest
		if !readMessage(w, r, maxBatchBytes, &req) {
			return
		}
		if err := rep.ApplyBatch(req.Batch); err != nil {
			// An execution failure mid-batch is a consistency fault; the
			// watermark stopped before the failing update, and the 500
			// keeps the hub retrying from there.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeMessage(rep.Obs(), w, &ReplicaApplyResponse{Applied: rep.Applied()})
	})
	mux.HandleFunc("GET "+PathReplicaStatus, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ReplicaStatusResponse{Name: rep.Name(), Applied: rep.Applied(), Served: rep.QueriesServed()})
	})
	return mux
}

// RegisterReplica subscribes replicaURL to primaryURL's confirmed-update
// stream (the -replica-of handshake). The primary replies with its
// current hub status.
func RegisterReplica(client *http.Client, primaryURL, replicaURL string) (ReplicaHubStatus, error) {
	client = defaultClient(client)
	body, err := json.Marshal(ReplicaRegisterRequest{URL: replicaURL})
	if err != nil {
		return ReplicaHubStatus{}, err
	}
	resp, err := client.Post(primaryURL+PathReplicaRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		return ReplicaHubStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return ReplicaHubStatus{}, fmt.Errorf("httpapi: %s%s: %s: %s", primaryURL, PathReplicaRegister, resp.Status, msg)
	}
	var st ReplicaHubStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// ReplicaHubStatus reports the hub's stream positions: how many
// confirmed updates exist and how far each registered replica has
// acknowledged.
type ReplicaHubStatus struct {
	Confirmed uint64              `json:"confirmed"`
	Replicas  []ReplicaStreamInfo `json:"replicas"`
}

// ReplicaStreamInfo is one replica's position in the hub's stream.
type ReplicaStreamInfo struct {
	URL   string `json:"url"`
	Acked uint64 `json:"acked"`
}

// ReplicaHub runs the primary side of the apply stream: it retains every
// confirmed update (in sequence order — the home server's dispatcher
// delivers contiguous runs) and pushes the unacknowledged suffix to each
// registered replica, retrying until acknowledged. Registration is
// dynamic: a replica that joins late receives the whole retained log
// first, so it converges from the shared populate state.
type ReplicaHub struct {
	client *http.Client
	reg    *obs.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	log     []homeserver.Confirmed // log[i].Seq == uint64(i)+1
	streams map[string]*replicaStream
	closed  bool

	// stop unblocks pushers sleeping in a retry backoff at Close time —
	// without it, a stream stuck on an unreachable replica would outlive
	// the hub. wg counts live pushers so Close can wait for all of them.
	stop chan struct{}
	wg   sync.WaitGroup
}

// replicaStream is one replica's pusher state; acked counts the log
// prefix the replica has acknowledged applying.
type replicaStream struct {
	url   string
	apply *hop
	acked uint64
}

// NewReplicaHub builds a hub. Attach it to the primary with
// primary.OnConfirm(hub.Confirm); reg (nil allowed) counts stream push
// errors.
func NewReplicaHub(client *http.Client, reg *obs.Registry) *ReplicaHub {
	h := &ReplicaHub{client: defaultClient(client), reg: reg, streams: make(map[string]*replicaStream), stop: make(chan struct{})}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Confirm is the hub's confirmation sink: the home server calls it (under
// the confirmation dispatcher's lock) with each contiguous run of
// confirmed updates. It only appends and wakes the pushers — the network
// work happens on the per-replica goroutines, so the home server's update
// path never blocks on a slow replica. A batch arriving after Close is
// dropped: shutdown drains before closing, so anything later is a stray
// dispatch racing SIGTERM, and appending it would push to replicas after
// the hub promised to stop.
func (h *ReplicaHub) Confirm(batch []homeserver.Confirmed) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.log = append(h.log, batch...)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Register subscribes a replica URL to the stream. Registering an
// already-known URL is a no-op (a restarted replica re-registers; its
// stream resumes from the acknowledged point, and the apply endpoint
// skips duplicates below its watermark anyway).
func (h *ReplicaHub) Register(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if _, ok := h.streams[url]; ok {
		return
	}
	st := &replicaStream{url: url, apply: newHop(h.client, url+PathReplicaApply, wireContentTypeValue)}
	h.streams[url] = st
	h.wg.Add(1)
	go h.run(st)
}

// run is one replica's push loop: send the unacknowledged log suffix,
// advance on acknowledgment, back off and resend on failure. The loop
// exits as soon as the hub closes — even mid-backoff against an
// unreachable replica — because Close is only called after Drain has
// confirmed every reachable replica acked the log; retrying past Close
// would leak the goroutine for as long as the replica stays down.
func (h *ReplicaHub) run(st *replicaStream) {
	defer h.wg.Done()
	for {
		h.mu.Lock()
		for !h.closed && st.acked >= uint64(len(h.log)) {
			h.cond.Wait()
		}
		if h.closed {
			h.mu.Unlock()
			return
		}
		batch := h.log[st.acked:]
		h.mu.Unlock()
		batch = fitApplyBatch(batch)

		applied, err := push(st.apply, batch)
		if err != nil {
			if h.reg != nil {
				h.reg.Counter(obs.MHTTPRetries).Inc()
			}
			select {
			case <-h.stop:
				return
			case <-time.After(retryBackoff):
			}
			continue
		}
		h.mu.Lock()
		if applied > st.acked {
			st.acked = applied
		}
		h.mu.Unlock()
		h.cond.Broadcast()
	}
}

// fitApplyBatch trims batch to the longest prefix whose encoding fits one
// apply body. The replica bounds what it reads, and the unacknowledged
// suffix is unbounded (a late joiner is owed the whole log), so the hub
// sends it in pieces; the acknowledged watermark moves the next piece up.
// At least one update is kept: one too large for any body fails loudly at
// the replica rather than stalling silently here.
func fitApplyBatch(batch []homeserver.Confirmed) []homeserver.Confirmed {
	wb := getBuf()
	defer putBuf(wb)
	size := 1 // the kind tag
	for i := range batch {
		wb.b = appendConfirmed(wb.b[:0], &batch[i])
		if size += len(wb.b); size > maxBatchBytes && i > 0 {
			return batch[:i]
		}
	}
	return batch
}

// push sends one batch to a replica's apply endpoint and returns the
// acknowledged watermark.
func push(apply *hop, batch []homeserver.Confirmed) (uint64, error) {
	var resp ReplicaApplyResponse
	ctx, cancel := context.WithTimeout(context.Background(), DefaultTimeout)
	defer cancel()
	err := apply.post(ctx, "", "", &ReplicaApplyRequest{Batch: batch}, &resp, false, nil)
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// Status snapshots the hub's stream positions.
func (h *ReplicaHub) Status() ReplicaHubStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := ReplicaHubStatus{Confirmed: uint64(len(h.log))}
	for _, s := range h.streams {
		st.Replicas = append(st.Replicas, ReplicaStreamInfo{URL: s.url, Acked: s.acked})
	}
	return st
}

// Drain blocks until every registered replica has acknowledged the whole
// retained log, or ctx expires — the graceful-shutdown half of the
// stream: stop taking statements first, then drain, and no replica is left
// short of the primary.
func (h *ReplicaHub) Drain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		h.mu.Lock()
		done := true
		for _, s := range h.streams {
			if s.acked < uint64(len(h.log)) {
				done = false
				break
			}
		}
		h.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops every push loop and waits for them to exit; after it
// returns no goroutine of the hub is live and no further batch is
// accepted or delivered. Call after Drain — Close does not wait for
// unacknowledged entries (Drain is the mechanism for that), it only
// guarantees the loops are gone, including one mid-backoff against an
// unreachable replica. Idempotent.
func (h *ReplicaHub) Close() {
	h.mu.Lock()
	already := h.closed
	h.closed = true
	h.mu.Unlock()
	if !already {
		close(h.stop)
	}
	h.cond.Broadcast()
	h.wg.Wait()
}

// replicaProxy is the node side of a remote replica: a
// pipeline.ReplicaBackend over HTTP. A refusal (409) surfaces as
// pipeline.LagError carrying the replica's applied watermark and home
// partition (from the response headers; the configured part is the
// fallback for replicas predating the partition header); transport
// errors are returned as-is, and so is a watermark or partition header
// that is present but not a number (counted in reg) — the replica set
// treats it like any failed call. No retry — the replica set's primary
// fallback is the retry.
type replicaProxy struct {
	query *hop
	part  int
	reg   *obs.Registry
}

func newReplicaProxy(client *http.Client, url string, part int, reg *obs.Registry) replicaProxy {
	return replicaProxy{query: newHop(client, url+PathExecQuery, wireContentTypeValue), part: part, reg: reg}
}

func (p replicaProxy) QueryAt(ctx context.Context, sq wire.SealedQuery, minSeq uint64, done func(pipeline.ExecQueryResult, error)) {
	exec, applied, err := p.queryAt(ctx, sq, minSeq)
	done(pipeline.ExecQueryResult{Result: exec.Result, Empty: exec.Empty, Scanned: exec.Scanned, Applied: applied}, err)
}

func (p replicaProxy) queryAt(ctx context.Context, sq wire.SealedQuery, minSeq uint64) (exec ExecQueryResponse, applied uint64, err error) {
	url := p.query.target
	r, err := p.query.send(ctx, encodeMessage((*queryMsg)(&sq)), MinSeqHeader, strconv.FormatUint(minSeq, 10))
	if err != nil {
		return exec, 0, err
	}
	defer r.Body.Close()
	if applied, err = seqHeader(p.reg, r.Header, AppliedHeader); err != nil {
		return exec, 0, err
	}
	switch r.StatusCode {
	case http.StatusOK:
		if err := decodeResponse(r, &exec); err != nil {
			return exec, 0, fmt.Errorf("httpapi: %s: response: %w", url, err)
		}
		return exec, applied, nil
	case http.StatusConflict:
		part := p.part
		if v := r.Header.Get(PartitionHeader); v != "" {
			if part, err = strconv.Atoi(v); err != nil || part < 0 {
				return exec, 0, badHeader(p.reg, PartitionHeader, v)
			}
		}
		return exec, 0, &pipeline.LagError{Applied: applied, Want: minSeq, Part: part}
	default:
		return exec, 0, statusError(url, r)
	}
}
