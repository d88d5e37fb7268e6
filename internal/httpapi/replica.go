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

// ReplicaRegisterRequest is a replica's hello (RegisterReplica): its base
// URL, which must be one the primary streams to.
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
	ids := rep.App().IDs()
	mux := newMux(rep.Obs(), rep.Tracer().Store(), &frameOps{
		OpExecQuery: func(_ context.Context, req, resp *frame) {
			sq, err := readExecQuery(req.body)
			if err != nil {
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
			a, err := rep.ExecQuery(sq)
			if err != nil {
				resp.fail(statusBadRequest, err)
				return
			}
			// The watermark re-read can only have advanced past the check
			// above, so the answer never claims more freshness than the
			// result has. The answer is lent, as the primary's is.
			resp.seq = rep.Applied()
			resp.body = (&execQueryMsg{Result: a.Result, Empty: a.Empty}).appendWire(resp.body)
			a.Release()
		},
		OpReplicaApply: func(_ context.Context, req, resp *frame) {
			var batch applyMsg
			if err := batch.readWire(req.body, ids); err != nil {
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

// RegisterReplica is a replica's hello to its primary, sent when the
// replica process starts: the primary resends replicaURL, which its
// topology must list, the stream from the start, and the replica's answer
// moves it on to the watermark the replica holds.
func RegisterReplica(client *http.Client, primaryURL, replicaURL string) error {
	body, err := json.Marshal(ReplicaRegisterRequest{URL: replicaURL})
	if err != nil {
		return err
	}
	resp, err := defaultClient(client).Post(primaryURL+PathReplicaRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("httpapi: %s%s: %s: %s", primaryURL, PathReplicaRegister, resp.Status, msg)
	}
	return nil
}

// ReplicaHubStatus reports the hub's stream positions: how many
// confirmed updates exist and how far each replica has acknowledged, in
// the topology's order.
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
// order) and pushes the unacknowledged suffix to each of a fixed set of
// replicas — the ones the topology lists for the primary's partition — as
// apply frames on one connection per replica, retrying until acknowledged.
// A replica that comes up late receives the whole retained log first, so
// it converges from the shared populate state. No other URL is ever sent
// the stream.
type ReplicaHub struct {
	reg *obs.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	log     []homeserver.Confirmed // log[i].Seq == uint64(i)+1
	streams []*replicaStream       // in the topology's order
	closed  bool

	// stop unblocks pushers sleeping in a retry backoff at Close time —
	// without it, a stream stuck on an unreachable replica would outlive
	// the hub. wg counts live pushers so Close can wait for all of them.
	stop chan struct{}
	wg   sync.WaitGroup
}

// replicaStream is one replica's pusher state; acked is the watermark the
// replica last answered, the log prefix it holds (0 again when it says
// hello anew).
type replicaStream struct {
	url   string
	apply *hop
	acked uint64
}

// NewReplicaHub builds a hub streaming to the replicas at urls, a push
// loop each from now on. Attach it to the primary with
// primary.OnConfirm(hub.Confirm); reg (nil allowed) counts stream push
// errors.
func NewReplicaHub(client *http.Client, reg *obs.Registry, urls []string) *ReplicaHub {
	h := &ReplicaHub{reg: reg, stop: make(chan struct{})}
	h.cond = sync.NewCond(&h.mu)
	for _, url := range urls {
		// The push loop is the apply stream's retry: the hop's own would
		// resend a batch uncounted, on top of it.
		st := &replicaStream{url: url, apply: newHop(client, url, nil)}
		st.apply.retry = false
		h.streams = append(h.streams, st)
		h.wg.Add(1)
		go h.run(st)
	}
	return h
}

// Confirm is the hub's confirmation sink: the home server calls it with
// each confirmed update, in sequence order. It only appends and wakes the
// pushers — the network work happens on the per-replica goroutines, so the
// home server's update path never blocks on a slow replica. An update
// confirmed after Close is dropped: shutdown drains before closing, so
// anything later is a stray confirmation racing SIGTERM, and appending it
// would push to replicas after the hub promised to stop. The update is
// lent for the call (homeserver.Confirmed): the log keeps a copy of it.
func (h *ReplicaHub) Confirm(c homeserver.Confirmed) {
	c.Update = c.Update.Own()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.log = append(h.log, c)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Resend answers a listed replica's hello. The replica says it when its
// process starts, from the populate state, so its stream is resent from
// the start; the replica's answer moves it on to the watermark it holds.
// It reports false, and changes nothing, for a URL the hub does not
// stream to.
func (h *ReplicaHub) Resend(url string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range h.streams {
		if st.url == url {
			st.acked = 0
			h.cond.Broadcast()
			return true
		}
	}
	return false
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

// Drain blocks until every replica has acknowledged the whole
// retained log, or ctx expires — the graceful-shutdown half of the
// stream: stop taking statements first, then drain, and no replica is left
// short of the primary. It waits on the hub's cond, which every ack
// broadcasts, and ctx's end broadcasts too.
func (h *ReplicaHub) Drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		// Under the lock, so the wake-up cannot land between the check
		// below and the Wait.
		h.mu.Lock()
		defer h.mu.Unlock()
		h.cond.Broadcast()
	})
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		done := true
		for _, s := range h.streams {
			if s.acked < uint64(len(h.log)) {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		h.cond.Wait()
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
	execQuery(ctx, p.query, &sq, minSeq, done)
}
