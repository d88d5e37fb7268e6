package httpapi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// Frames: the binary traffic between processes. Every sealed exchange —
// client → router → node → home, the router's invalidation fan-out and
// bucket migration, node → replica, the hub's apply stream — rides one
// persistent connection per peer, which the sender opens by an HTTP Upgrade
// on the listener the peer already serves:
//
//	GET /v1/frames HTTP/1.1
//	Connection: Upgrade
//	Upgrade: dssp-frames/4
//
// The peer answers 101 Switching Protocols and hijacks the connection;
// from then on both directions carry frames and nothing else. A sender
// whose http.Client has a RoundTripper of its own instead POSTs each frame
// to PathFrames through it and gets the answer frame back as the response
// body (hop.roundTrip): the same frames, bounds and handlers, one per
// request. Any other request for PathFrames is answered 426, and a POST
// whose body is not one frame 400, so a peer speaking anything else fails
// loudly instead of being misread.
//
//	frame  = uint32(n) header body       n = len(header body), big-endian, at most the op's bound that way
//	header = byte(op) uint32(stream) byte(status) uvarint(seq)
//	body   = message                     status ok: the envelope message.go names for the op and way
//	       | text                        any other status: why
//
// A request frame has status ok; the server answers it on the same stream
// ID, in whatever order its answers finish. The op and the way a frame
// travels name its body's grammar — the body has no tag of its own — and
// seq is the staleness value of the replicated home tier: message.go's
// table says, per op and way, what the body is and what seq carries.
// Decoding is as strict as the envelopes': a uvarint that is not minimal,
// an unknown op or status, is a refused frame, never a zero.
const (
	PathFrames    = "/v1/frames"
	frameProtocol = "dssp-frames/4"
)

// Op names a frame's exchange: what its request and its answer carry
// (message.go) and which processes serve it.
type Op byte

const (
	OpQuery        Op = 1 + iota // node and router
	OpUpdate                     // node and router
	OpInvalidate                 // node: an update confirmed through another node (the router's fan-out)
	OpExecQuery                  // home primary and replica
	OpExecUpdate                 // home primary
	OpReplicaApply               // replica: the hub's apply stream
	OpBucketExport               // node: the old owner's side of a warm handoff
	OpBucketImport               // node: the new owner's side
	OpBucketDrop                 // node: post-flip cleanup
	numOps
)

// opTable is, per op, its name; the most its frames may carry past the
// header, by dir — one sealed statement (maxMessageBytes), or
// maxBatchBytes for what carries many: a replica apply batch, a bucket
// import and a bucket export's answer; and whether a call of it may be sent
// again after its connection failed. That is every op but the two updates,
// since a lost answer does not prove an update was not applied; the bucket
// ops are idempotent by construction: an export copies, an import skips
// keys the node already holds, and a drop of an absent bucket is a no-op.
var opTable = [numOps]struct {
	name       string
	bound      [2]uint32
	idempotent bool
}{
	OpQuery:        {"query", [2]uint32{maxMessageBytes, maxMessageBytes}, true},
	OpUpdate:       {"update", [2]uint32{maxMessageBytes, maxMessageBytes}, false},
	OpInvalidate:   {"invalidate", [2]uint32{maxMessageBytes, maxMessageBytes}, true},
	OpExecQuery:    {"exec query", [2]uint32{maxMessageBytes, maxMessageBytes}, true},
	OpExecUpdate:   {"exec update", [2]uint32{maxMessageBytes, maxMessageBytes}, false},
	OpReplicaApply: {"replica apply", [2]uint32{maxBatchBytes, maxBatchBytes}, true},
	OpBucketExport: {"bucket export", [2]uint32{maxMessageBytes, maxBatchBytes}, true},
	OpBucketImport: {"bucket import", [2]uint32{maxBatchBytes, maxMessageBytes}, true},
	OpBucketDrop:   {"bucket drop", [2]uint32{maxMessageBytes, maxMessageBytes}, true},
}

func (op Op) valid() bool { return op > 0 && op < numOps }

func (op Op) String() string {
	if !op.valid() {
		return "op " + strconv.Itoa(int(op))
	}
	return opTable[op].name
}

// dir is the way a frame travels: a request to the process serving its op,
// or the answer back.
type dir uint8

const (
	dirRequest dir = iota
	dirAnswer
)

// bound is the most a frame of op travelling way d may declare as its
// length: its opTable bound plus the header. An unknown op gets the
// smaller bound; its frame is refused once read.
func (op Op) bound(d dir) uint32 {
	if !op.valid() {
		return maxMessageBytes + frameHeaderMax
	}
	return opTable[op].bound[d] + frameHeaderMax
}

// status is a response frame's outcome; each refusal has the role an HTTP
// status had before frames.
type status byte

const (
	statusOK         status = iota
	statusBadRequest        // 400: the frame, its message or its statement was refused
	statusBadGateway        // 502: the statement did not get through upstream
	statusLag               // 409: a replica behind the request's floor; seq is its watermark
	statusTooLarge          // 413: the frame declared more than its op's bound; the connection closes after it
	statusFailed            // 500: a well-formed statement failed where it ran
	numStatus
)

var statusNames = [numStatus]string{"ok", "bad request", "bad gateway", "replica lag", "too large", "failed"}

func (s status) String() string {
	if s >= numStatus {
		return "status " + strconv.Itoa(int(s))
	}
	return statusNames[s]
}

// frame is one frame's header and body. body aliases the buffer the frame
// was read into, or is the frame being built (header room included, see
// startFrame).
type frame struct {
	op     Op
	stream uint32
	status status
	seq    uint64
	body   []byte
}

// fail turns a response under construction into a refusal: status and
// the error's text as its body.
func (f *frame) fail(st status, err error) {
	f.status = st
	f.body = append(f.body[:frameHeaderMax], err.Error()...)
}

// frameHeaderMax is the room startFrame leaves in front of a body: the
// length and the longest header. frameHeaderMin is the shortest length a
// frame can declare: op, stream, status and a one-byte uvarint.
const (
	frameHeaderMax = 4 + 1 + 4 + 1 + binary.MaxVarintLen64
	frameHeaderMin = 1 + 4 + 1 + 1
)

var (
	errShortFrame      = errors.New("httpapi: frame shorter than its header")
	errBadFrame        = errors.New("httpapi: malformed frame header")
	errDuplicateStream = errors.New("httpapi: frame reuses a stream ID in flight")
)

// startFrame empties b and reserves the room finishFrame writes a header
// into; the body is appended after it. Building the body in place is what
// lets a frame leave in one write without a copy.
func startFrame(b []byte) []byte { return append(b[:0], make([]byte, frameHeaderMax)...) }

// finishFrame writes f's header (f.body is not read) in front of the body
// that follows the header room of b, and returns the frame: a suffix of b.
// b itself is untouched past the header room, so a frame can be finished
// again under another stream ID.
func finishFrame(b []byte, f *frame) []byte {
	out := b[frameHeaderMax-(4+1+4+1+uvarintLen(f.seq)):]
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	out[4] = byte(f.op)
	binary.BigEndian.PutUint32(out[5:], f.stream)
	out[9] = byte(f.status)
	binary.PutUvarint(out[10:], f.seq)
	return out
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// readFrame reads one frame travelling way d from r into f, the rest of its
// header and its body into wb (f.body aliases wb.b). The declared length is
// checked against the op's bound that way before a byte of the body is
// read, and the buffer grows only with the bytes that arrive. A frame
// refused once it was read whole — an unknown op or status, a garbled
// staleness field — is errBadFrame with f.op and f.stream set, so it can
// be answered; a length under the shortest header is errShortFrame and one
// over the bound errTooLarge (f.op and f.stream set too), after both of
// which the stream has lost its framing, as after any I/O error.
func readFrame(r *bufio.Reader, f *frame, wb *wireBuf, d dir) error {
	pre, err := r.Peek(4 + 1 + 4)
	if err != nil {
		if len(pre) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	n := binary.BigEndian.Uint32(pre)
	f.op, f.stream = Op(pre[4]), binary.BigEndian.Uint32(pre[5:])
	_, _ = r.Discard(len(pre)) // cannot fail: the bytes are buffered
	switch {
	case n < frameHeaderMin:
		return errShortFrame
	case n > f.op.bound(d):
		return errTooLarge
	}
	rest := int(n) - 5
	wb.b = wb.b[:0]
	for len(wb.b) < rest {
		if len(wb.b) == cap(wb.b) {
			wb.b = append(wb.b, 0)[:len(wb.b)]
		}
		end := min(cap(wb.b), rest)
		if _, err := io.ReadFull(r, wb.b[len(wb.b):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		wb.b = wb.b[:end]
	}
	f.status = status(wb.b[0])
	if f.seq, f.body, err = wire.Uvarint(wb.b[1:]); err != nil {
		return errBadFrame
	}
	if !f.op.valid() || f.status >= numStatus {
		return errBadFrame
	}
	return nil
}

// frameFunc answers one request frame. req.body is the request's envelope,
// valid only during the call. The answer goes into resp: an envelope
// appended to resp.body (which starts with the header room, so only append)
// under status ok, or resp.fail's refusal — plus resp.seq where the op
// carries it.
type frameFunc func(ctx context.Context, req, resp *frame)

// frameOps is what one process serves over frames: a handler per op, nil
// for an op it does not serve.
type frameOps [numOps]frameFunc

// answer runs req's handler and builds its answer in x, returning the
// frame to send. It is the one place a frame is dispatched by its op. An
// answer over its op's bound would be refused by the sender's reader,
// which cannot tell it from a broken stream and fails every call on the
// connection with it, so it is replaced by a too large refusal on its own
// stream.
func (ops *frameOps) answer(ctx context.Context, x *serverCall) []byte {
	req, resp := &x.req, &x.resp
	*resp = frame{op: req.op, stream: req.stream, body: startFrame(x.out.b)}
	if h := ops[req.op]; h != nil {
		h(ctx, req, resp)
	} else {
		resp.fail(statusBadRequest, fmt.Errorf("httpapi: %v is not served here", req.op))
	}
	if n, bound := len(resp.body)-4, req.op.bound(dirAnswer); n > int(bound) {
		resp.seq = 0
		resp.fail(statusTooLarge, fmt.Errorf("httpapi: a %v answer of %d bytes is over its bound of %d", req.op, n, bound))
	}
	x.out.b = resp.body
	return finishFrame(resp.body, resp)
}

// refusal is how a frame the reader refused is answered: bad request for a
// malformed header or envelope of a known op, too large for one over its
// bound; statusOK when it cannot be answered at all — no op to answer
// under, a frame shorter than its header, a stream ID already in flight.
// bad is false when err is no refused frame but an I/O error.
func refusal(req *frame, err error) (st status, bad bool) {
	switch {
	case errors.Is(err, errBadFrame) && req.op.valid():
		return statusBadRequest, true
	case errors.Is(err, errTooLarge) && req.op.valid():
		return statusTooLarge, true
	case errors.Is(err, errBadFrame), errors.Is(err, errTooLarge), errors.Is(err, errShortFrame), errors.Is(err, errDuplicateStream):
		return statusOK, true
	}
	return statusOK, false
}

// frameWindow bounds the frames one connection may have in flight at a
// server: with that many being answered, the read loop reads no further
// frame until one is. It bounds the connection's workers too (dispatch).
const frameWindow = 256

// frameWriteTimeout bounds one answer's write at a server: a peer that has
// not taken it in that long has stopped reading, and its connection is
// closed rather than left holding the write mutex — and every answer
// queued behind it — for good.
const frameWriteTimeout = DefaultTimeout

// frameServer is one process's PathFrames handler: it upgrades the
// connection and runs the frame loop over it, or answers one POSTed frame.
type frameServer struct {
	ops *frameOps
	reg *obs.Registry
}

func (s *frameServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.serveOne(w, r)
		return
	}
	if r.Method != http.MethodGet || !headerHasToken(r.Header, "Connection", "upgrade") ||
		!headerHasToken(r.Header, "Upgrade", frameProtocol) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", frameProtocol)
		http.Error(w, "httpapi: "+PathFrames+" carries only "+frameProtocol+": GET it with Connection: Upgrade "+
			"and Upgrade: "+frameProtocol+", or POST one frame", http.StatusUpgradeRequired)
		return
	}
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	hj, ok := w.(http.Hijacker)
	if srv == nil || !ok {
		http.Error(w, "httpapi: this server cannot hand a connection over to frames", http.StatusInternalServerError)
		return
	}
	conns := upgradedBy(srv)
	nc, rw, err := hj.Hijack()
	if err != nil {
		slog.Warn("httpapi: frame upgrade failed", "err", err)
		return
	}
	_ = nc.SetDeadline(time.Time{})
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+frameProtocol+"\r\n\r\n"); err != nil {
		nc.Close()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &serverConn{
		nc: nc, ops: s.ops, reg: s.reg, ctx: ctx, cancel: cancel,
		window: make(chan struct{}, frameWindow), handoff: make(chan *serverCall),
		streams: make(map[uint32]struct{}),
	}
	if !conns.add(c) {
		cancel()
		nc.Close()
		return
	}
	go c.serve(rw.Reader, func() { conns.remove(c) })
}

// postReadBuf is the buffer a POSTed frame is read through: room for the
// header readFrame peeks at, while the body, read into its own buffer,
// bypasses it.
const postReadBuf = 64

// serveOne answers one frame POSTed to PathFrames (hop.roundTrip): the
// request body is the frame and the response body its answer — what a
// frame connection would have answered, with the same bounds, refusals
// and handlers, under the request's context. A body that is not one frame
// with an op to answer under is 400.
func (s *frameServer) serveOne(w http.ResponseWriter, r *http.Request) {
	x := serverCalls.Get().(*serverCall)
	defer x.release()
	br := bufio.NewReaderSize(r.Body, postReadBuf)
	err := readFrame(br, &x.req, &x.in, dirRequest)
	if err == nil && x.req.status != statusOK {
		err = errBadFrame
	}
	if err == nil {
		if _, more := br.ReadByte(); more != io.EOF {
			err = fmt.Errorf("%w: bytes after the frame", errBadFrame)
		}
	}
	var out []byte
	if err == nil {
		out = s.ops.answer(r.Context(), x)
	} else {
		st, bad := refusal(&x.req, err)
		if bad && s.reg != nil {
			s.reg.Counter(obs.MHTTPBadFrames).Inc()
		}
		if st == statusOK {
			http.Error(w, "httpapi: the body of a POST to "+PathFrames+" is one frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		out = x.refused(st, err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(out); err != nil {
		slog.Warn("httpapi: frame write failed", "bytes", len(out), "err", err)
		if s.reg != nil {
			s.reg.Counter(obs.MHTTPWriteErrors).Inc()
		}
	}
}

// headerHasToken reports whether one of the comma-separated values of
// header name is token, compared without case.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// serverConn is one upgraded connection at the server: a read loop, and
// the workers that answer the frames it reads, each parked between frames.
type serverConn struct {
	nc      net.Conn
	ops     *frameOps
	reg     *obs.Registry
	ctx     context.Context
	cancel  context.CancelFunc
	window  chan struct{}    // one slot per frame in flight
	handoff chan *serverCall // unbuffered: a frame passes only to a parked worker
	workers int              // started; the read loop's alone

	wmu sync.Mutex // one frame written at a time

	mu       sync.Mutex
	streams  map[uint32]struct{} // stream IDs in flight
	busy     sync.WaitGroup      // the workers
	stopping atomic.Bool
}

// serve is the read loop: it reads frames until the peer goes, the
// framing breaks or stop is called, each once a window slot is free, and
// hands each to a worker; then it lets the workers go, waits for the
// answers in flight and closes the connection. When the peer went away it
// cancels the in-flight statements' context first, as a server cancels the
// request of a client that disconnected; stop lets them finish. done runs
// last.
func (c *serverConn) serve(r *bufio.Reader, done func()) {
	defer done()
	for {
		c.window <- struct{}{}
		x := serverCalls.Get().(*serverCall)
		err := readFrame(r, &x.req, &x.in, dirRequest)
		if err == nil && x.req.status != statusOK {
			err = errBadFrame
		}
		if err == nil && !c.begin(x.req.stream) {
			err = errDuplicateStream
		}
		if err != nil {
			<-c.window
			goOn := c.refuse(x, err)
			x.release()
			if goOn {
				continue
			}
			break
		}
		c.dispatch(x)
	}
	close(c.handoff)
	if !c.stopping.Load() {
		c.cancel()
	}
	c.busy.Wait()
	c.nc.Close()
	c.cancel()
}

// dispatch hands x, which holds a window slot, to a parked worker, and
// starts one only when none is parked. With frameWindow workers started it
// waits for one instead: the slot x holds leaves at most frameWindow-1 of
// them answering, so one is on its way back to park. A worker answers
// frame after frame on the stack it has grown, so a frame costs neither a
// goroutine nor the growth of a fresh one's stack.
func (c *serverConn) dispatch(x *serverCall) {
	select {
	case c.handoff <- x:
		return
	default:
	}
	if c.workers == frameWindow {
		c.handoff <- x
		return
	}
	c.workers++
	c.busy.Add(1)
	go c.work(x)
}

// work answers x, then each frame handed to it, until the read loop ends.
func (c *serverConn) work(x *serverCall) {
	defer c.busy.Done()
	for ok := true; ok; x, ok = <-c.handoff {
		c.answer(x)
	}
}

// refuse answers a frame the read loop refused, where it can, and reports
// whether the connection still frames. A malformed header of a known op
// was read whole, so it is answered bad request and the next frame
// follows; an oversized frame is answered too large and ends the
// connection. An unknown op (a peer speaking something else, and no op to
// answer under), a short frame, a stream ID already in flight (whose
// answer would go to the wrong call) and any I/O error end it unanswered.
func (c *serverConn) refuse(x *serverCall, err error) bool {
	st, bad := refusal(&x.req, err)
	if !bad {
		return false // the peer went, or stop was called
	}
	if c.reg != nil {
		c.reg.Counter(obs.MHTTPBadFrames).Inc()
	}
	if st == statusOK {
		return false
	}
	c.write(x.refused(st, err))
	return st == statusBadRequest
}

// begin claims a stream ID for a frame going into flight; false if one in
// flight already has it.
func (c *serverConn) begin(stream uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.streams[stream]; dup {
		return false
	}
	c.streams[stream] = struct{}{}
	return true
}

// serverCall is one request frame at a server, pooled with both its
// buffers: the request and the buffer it was read into, the answer and the
// buffer it is built in.
type serverCall struct {
	req, resp frame
	in, out   wireBuf
}

var serverCalls = sync.Pool{New: func() any { return new(serverCall) }}

// release returns x to the pool, without a buffer one large frame grew.
func (x *serverCall) release() {
	for _, wb := range [...]*wireBuf{&x.in, &x.out} {
		if cap(wb.b) > maxPooledBuf {
			wb.b = nil
		}
	}
	x.req, x.resp = frame{}, frame{}
	serverCalls.Put(x)
}

// refused builds the refusal st of x's request, err's text as the reason,
// and returns the frame to send.
func (x *serverCall) refused(st status, err error) []byte {
	x.resp = frame{op: x.req.op, stream: x.req.stream, body: startFrame(x.out.b)}
	x.resp.fail(st, err)
	x.out.b = x.resp.body
	return finishFrame(x.resp.body, &x.resp)
}

// answer answers one frame in flight, writes the answer and frees the
// frame's window slot.
//
// The handler runs under the connection's context, not one of its own:
// a sender that gives up on a call withdraws it at its end only, and the
// work goes on — holding its window slot — until it finishes or the
// connection goes. What bounds it is the downstream hops' own timeouts.
func (c *serverConn) answer(x *serverCall) {
	c.write(c.ops.answer(c.ctx, x))
	c.mu.Lock()
	delete(c.streams, x.req.stream)
	c.mu.Unlock()
	x.release()
	<-c.window
}

// write sends one whole frame within frameWriteTimeout. A failed write
// means the peer will not get its answer; the connection is closed (its
// read loop then ends) and the failure logged and counted under
// http_write_errors.
func (c *serverConn) write(b []byte) {
	c.wmu.Lock()
	_ = c.nc.SetWriteDeadline(time.Now().Add(frameWriteTimeout))
	_, err := c.nc.Write(b)
	c.wmu.Unlock()
	if err != nil {
		slog.Warn("httpapi: frame write failed", "bytes", len(b), "err", err)
		if c.reg != nil {
			c.reg.Counter(obs.MHTTPWriteErrors).Inc()
		}
		c.nc.Close()
	}
}

// stop ends the read loop at the next read: the frames already in flight
// are answered, then the connection closes.
func (c *serverConn) stop() {
	c.stopping.Store(true)
	_ = c.nc.SetReadDeadline(time.Unix(1, 0))
}

// frameConns are the connections one http.Server has handed over to
// frames. A hijacked connection is no longer the server's: its Shutdown
// would neither stop nor wait for it. So the first upgrade a server
// serves registers stop with RegisterOnShutdown — a bare Shutdown stops
// every frame connection, asynchronously — and Shutdown below also waits.
type frameConns struct {
	mu      sync.Mutex
	conns   map[*serverConn]struct{}
	stopped bool
	live    sync.WaitGroup
}

// upgraded maps each *http.Server that has upgraded a connection to its
// frameConns, until they have all closed after its shutdown.
var upgraded sync.Map

func upgradedBy(srv *http.Server) *frameConns {
	if v, ok := upgraded.Load(srv); ok {
		return v.(*frameConns)
	}
	v, loaded := upgraded.LoadOrStore(srv, &frameConns{conns: make(map[*serverConn]struct{})})
	fc := v.(*frameConns)
	if !loaded {
		srv.RegisterOnShutdown(func() {
			fc.stop()
			fc.live.Wait()
			upgraded.CompareAndDelete(srv, fc)
		})
	}
	return fc
}

// add tracks a new connection; false once the server is shutting down.
func (fc *frameConns) add(c *serverConn) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.stopped {
		return false
	}
	fc.conns[c] = struct{}{}
	fc.live.Add(1)
	return true
}

func (fc *frameConns) remove(c *serverConn) {
	fc.mu.Lock()
	delete(fc.conns, c)
	fc.mu.Unlock()
	fc.live.Done()
}

func (fc *frameConns) stop() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.stopped = true
	for c := range fc.conns {
		c.stop()
	}
}

// Shutdown is http.Server.Shutdown for a server that serves frames — what
// a process runs on SIGTERM. Beyond what srv.Shutdown does, every frame
// connection srv has upgraded stops reading, answers the frames already in
// flight and closes, and Shutdown returns once they all have, or when ctx
// is done.
func Shutdown(ctx context.Context, srv *http.Server) error {
	err := srv.Shutdown(ctx)
	v, ok := upgraded.Load(srv)
	if !ok {
		return err
	}
	fc := v.(*frameConns)
	fc.stop()
	closed := make(chan struct{})
	go func() {
		fc.live.Wait()
		close(closed)
	}()
	select {
	case <-closed:
		upgraded.CompareAndDelete(srv, fc)
	case <-ctx.Done():
		err = errors.Join(err, fmt.Errorf("httpapi: frame connections still answering: %w", ctx.Err()))
	}
	return err
}
