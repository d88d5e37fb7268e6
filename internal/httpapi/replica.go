package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// ReplicaStatusResponse is a replica's applied watermark and query load,
// served as JSON from PathReplicaStatus for smoke tests and operators.
type ReplicaStatusResponse struct {
	Name    string `json:"name"`
	Applied uint64 `json:"applied"`
	Served  int    `json:"served"`
}

// ReplicaHandler exposes a home read replica over HTTP: the replica half
// of the home API (sealed queries with the staleness check, the apply
// stream's push frames) plus the standard metrics and trace surface.
func ReplicaHandler(rep *home.Replica) http.Handler {
	rep.Tracer().SetStore(obs.NewSpanStore(0))
	mux := newMux(rep.Obs(), rep.Tracer().Store(), &frameOps{
		OpExecQuery: func(_ context.Context, req, resp *frame) {
			var sq wire.SealedQuery
			if err := (*queryMsg)(&sq).decodeWire(req.body); err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			if applied := rep.Applied(); applied < req.seq {
				// The node's freshness floor is ahead of this replica: refuse
				// rather than serve a result that predates an update the node
				// already invalidated for. The lag status keeps the refusal
				// distinct from a failure, and the applied watermark rides
				// back so the node can stop asking until the replica catches
				// up.
				resp.seq = applied
				resp.fail(statusLag, fmt.Errorf("replica lagging: applied %d < floor %d", applied, req.seq))
				return
			}
			res, empty, scanned, err := rep.ExecQuery(sq)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			// The watermark re-read can only have advanced past the check
			// above, so the answer never claims more freshness than the
			// result has.
			resp.seq = rep.Applied()
			resp.body = (&execQueryMsg{Result: res, Empty: empty, Scanned: scanned}).appendWire(resp.body)
		},
		OpReplicaApply: func(_ context.Context, req, resp *frame) {
			var batch applyMsg
			if err := batch.decodeWire(req.body); err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			if err := rep.ApplyBatch(batch); err != nil {
				// An execution failure mid-batch is a consistency fault; the
				// watermark stopped before the failing update, and the
				// refusal keeps the hub retrying from there.
				resp.fail(statusFailed, err)
				return
			}
			// The answer is the applied watermark — behind the batch's tail
			// when the batch started past it (the replica restarted), and
			// the hub resends from there.
			resp.seq = rep.Applied()
		},
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
// confirmed update (in sequence order — the home server confirms in that
// order) and pushes the unacknowledged suffix to each registered replica,
// as apply frames on one connection per replica, retrying until
// acknowledged. Registration is dynamic: a replica that joins late
// receives the whole retained log first, so it converges from the shared
// populate state.
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

// replicaStream is one replica's pusher state; acked is the watermark the
// replica last answered, the log prefix it holds (0 again when it
// registers anew).
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

// Confirm is the hub's confirmation sink: the home server calls it with
// each confirmed update, in sequence order. It only appends and wakes the
// pushers — the network work happens on the per-replica goroutines, so the
// home server's update path never blocks on a slow replica. An update
// confirmed after Close is dropped: shutdown drains before closing, so
// anything later is a stray confirmation racing SIGTERM, and appending it
// would push to replicas after the hub promised to stop.
func (h *ReplicaHub) Confirm(c homeserver.Confirmed) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.log = append(h.log, c)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Register subscribes a replica URL to the stream. A replica registers
// when its process starts, from the populate state, so registering a
// known URL — a restarted replica — resends its stream from the start;
// the replica's answer moves it on to the watermark the replica holds.
func (h *ReplicaHub) Register(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if st, ok := h.streams[url]; ok {
		st.acked = 0
		h.cond.Broadcast()
		return
	}
	// The push loop is the apply stream's retry: the hop's own would resend
	// a batch uncounted, on top of it.
	st := &replicaStream{url: url, apply: newHop(h.client, url, nil)}
	st.apply.retry = false
	h.streams[url] = st
	h.wg.Add(1)
	go h.run(st)
}

// run is one replica's push loop: send the log past the replica's
// watermark, take the watermark it answers — lower than before, too, when
// the replica restarted, so the next push resends from there — and back
// off and resend on failure. The loop
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

		// A push in flight is not cut short at Close: a batch the replica
		// already holds would land after Close returned. DefaultTimeout
		// bounds it whatever client the hub was given — one without a
		// Timeout included — so a hung replica cannot hold Close up.
		ctx, cancel := context.WithTimeout(context.Background(), DefaultTimeout)
		applied, err := st.push(ctx, batch)
		cancel()
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
		st.acked = applied
		h.mu.Unlock()
		h.cond.Broadcast()
	}
}

// push sends one apply batch and returns the watermark the replica
// answers.
func (st *replicaStream) push(ctx context.Context, batch applyMsg) (uint64, error) {
	k := takeCall()
	defer k.release()
	k.out = batch.appendWire(k.out)
	body, applied, err := st.apply.send(ctx, k, OpReplicaApply, 0)
	if err == nil {
		err = st.apply.decoded(emptyMsg{}.decodeWire(body))
	}
	return applied, err
}

// fitApplyBatch trims batch to the longest prefix whose encoding fits one
// apply frame. The replica bounds what it reads, and the unacknowledged
// suffix is unbounded (a late joiner is owed the whole log), so the hub
// sends it in pieces; the acknowledged watermark moves the next piece up.
// At least one update is kept: one too large for any body fails loudly at
// the replica rather than stalling silently here.
func fitApplyBatch(batch []homeserver.Confirmed) []homeserver.Confirmed {
	wb := getBuf()
	defer putBuf(wb)
	size := 0
	for i := range batch {
		wb.b = appendConfirmed(wb.b[:0], &batch[i])
		if size += len(wb.b); size > maxBatchBytes && i > 0 {
			return batch[:i]
		}
	}
	return batch
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

// Close stops every push loop and waits for them to exit, then closes the
// connections to the replicas; after it returns no goroutine of the hub is
// live and no further batch is accepted or delivered. Call after Drain —
// Close does not wait for unacknowledged entries (Drain is the mechanism
// for that), it only guarantees the loops are gone, including one
// mid-backoff against an unreachable replica. Idempotent.
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
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range h.streams {
		st.apply.close()
	}
}

// replicaProxy is the node side of a remote replica: a
// pipeline.ReplicaBackend over its hop. A refusal surfaces as
// pipeline.LagError carrying the replica's applied watermark from the
// refusal frame; failures are returned as they are, a
// garbled staleness field among them — the replica set treats it like
// any failed call. No retry: the replica set's primary fallback is the
// retry.
type replicaProxy struct{ query *hop }

func newReplicaProxy(client *http.Client, url string, reg *obs.Registry) replicaProxy {
	h := newHop(client, url, reg)
	h.retry = false
	return replicaProxy{query: h}
}

func (p replicaProxy) QueryAt(ctx context.Context, sq wire.SealedQuery, minSeq uint64, done func(pipeline.ExecQueryResult, error)) {
	done(execQuery(ctx, p.query, &sq, minSeq))
}
