package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/obs"
	"dssp/internal/pipeline"
)

// hop is one peer as the process that sends statements to it holds it:
// where to dial, worked out once from the peer's base URL, and the one
// persistent frame connection to it — dialed on the first call and again
// after it dies, and shared by every call in between, however many are in
// flight. Every exchange between processes — statements, apply batches and
// bucket migration — leaves through send.
//
// A hop dials and upgrades its connection itself, in place of the
// http.Client's Transport when that is an *http.Transport or nil — the
// standard dialer, which would open the same TCP connection. A client with
// a RoundTripper of its own (a wrapper that times, counts or shapes its
// hop, as the repository benchmark's traced fleet has) keeps the meaning
// it had: its RoundTripper carries every statement, each frame the body of
// one POST to PathFrames (roundTrip). A RoundTripper cannot carry the
// upgraded connection itself: it hands a 101's connection back as the
// response body, and a wrapping one hides that body's writer. The Timeout
// bounds every call either way.
type hop struct {
	target  string            // the base URL as configured, for errors
	addr    string            // host:port to dial
	upgrade string            // the upgrade request, rendered once
	rt      http.RoundTripper // the client's own RoundTripper, which carries each frame in a POST; nil: the hop's connection does
	frames  string            // the URL frames are POSTed to through rt
	timeout time.Duration     // bounds a call whose context does not bound it sooner; 0 is no bound
	retry   bool              // resend an idempotent op once after a connection failure
	reg     *obs.Registry     // counts retries and refused frames; nil counts nothing
	err     error             // the base URL was refused: every call reports it

	mu   sync.Mutex
	conn *clientConn // nil before the first call and after close
}

// newHop builds the hop to the peer at base, a base URL. A nil client means
// DefaultTimeout. Only plain http is spoken between processes: a base URL
// with any other scheme, or one that does not parse, is refused here and
// reported by every call.
func newHop(client *http.Client, base string, reg *obs.Registry) *hop {
	client = defaultClient(client)
	h := &hop{target: base, timeout: client.Timeout, retry: true, reg: reg}
	if _, std := client.Transport.(*http.Transport); !std && client.Transport != nil {
		h.rt = client.Transport
	}
	u, err := url.Parse(base)
	switch {
	case err != nil:
		h.err = err
	case u.Scheme != "http":
		h.err = fmt.Errorf("scheme %q: statements travel over plain http only", u.Scheme)
	case u.Host == "":
		h.err = errors.New("no host")
	default:
		h.addr = u.Host
		if u.Port() == "" {
			h.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		path := strings.TrimSuffix(u.EscapedPath(), "/") + PathFrames
		h.upgrade = "GET " + path + " HTTP/1.1\r\nHost: " + u.Host +
			"\r\nConnection: Upgrade\r\nUpgrade: " + frameProtocol + "\r\n\r\n"
		h.frames = "http://" + u.Host + path
	}
	return h
}

// call is one request in flight, pooled with everything it needs: the
// request frame, the timer that bounds it, and the slot the connection's
// reader puts the answer in. A call is three steps around it, so that the
// caller's envelopes stay in its own frame and nothing of the call's own is
// allocated: takeCall, then the request's envelope appended to out by its
// concrete type; send, which returns the answer's body; and release, once
// the caller has decoded the body.
type call struct {
	out       []byte        // the request frame: header room, then the envelope
	timer     *time.Timer   // the hop's timeout, re-armed per attempt
	done      chan struct{} // the answer arrived, or the connection died (capacity 1)
	resp      frame         // the answer; resp.body lies in in
	in        *wireBuf
	err       error // why the connection died before the answer
	abandoned bool  // the caller gave up while a reader may still hand the call its answer
}

var calls = sync.Pool{New: func() any { return &call{timer: stoppedTimer(), done: make(chan struct{}, 1)} }}

// takeCall returns a pooled call whose out holds the frame header's room;
// the caller appends the request's envelope after it.
func takeCall() *call {
	k := calls.Get().(*call)
	k.out = startFrame(k.out)
	return k
}

// release returns k to the pool with the buffer its answer was read into,
// so the body send returned is gone after it. An abandoned call is left to
// the collector, never reused: a connection's reader may still be handing
// it an answer.
func (k *call) release() {
	if k.abandoned {
		return
	}
	if k.in != nil {
		putBuf(k.in)
	}
	if cap(k.out) <= maxPooledBuf {
		k.resp, k.in, k.err = frame{}, nil, nil
		calls.Put(k)
	}
}

func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// disarm stops k's timer after a wait that did not take its value. A timer
// that fired meanwhile may still deliver that value — when exactly depends
// on the timer-channel semantics the module's go version selects — so it is
// replaced instead of drained.
func (k *call) disarm() {
	if !k.timer.Stop() {
		k.timer = stoppedTimer()
	}
}

// send sends the request k holds under op, with seq as its staleness
// value, and returns the answer's body and seq (what the seq carries per op
// is in message.go's table); the body is valid until k is released. A
// replica's lag refusal is a *pipeline.LagError; any other refusal an error
// naming the status and the peer's reason. The hop's timeout bounds the
// wait unless ctx's deadline is sooner. When the connection fails before
// the answer arrives, an idempotent op is sent once more — the same
// envelope, after retryBackoff, on a fresh connection — and counted under
// http_retries; an answer, whatever it says, is never retried, and neither
// is an update.
func (h *hop) send(ctx context.Context, k *call, op Op, seq uint64) ([]byte, uint64, error) {
	if h.err != nil {
		return nil, 0, fmt.Errorf("httpapi: %s: %w", h.target, h.err)
	}
	lost, keep, err := h.attempt(ctx, k, op, seq)
	if lost && h.retry && opTable[op].idempotent && ctx.Err() == nil {
		if h.reg != nil {
			h.reg.Counter(obs.MHTTPRetries).Inc()
		}
		backoff := time.NewTimer(retryBackoff)
		select {
		case <-backoff.C:
			lost, keep, err = h.attempt(ctx, k, op, seq)
		case <-ctx.Done():
			backoff.Stop()
		}
	}
	k.abandoned = !keep
	if err != nil {
		return nil, 0, err
	}
	return h.open(k, op)
}

// decoded is the error of decoding an answer's body, naming the peer.
func (h *hop) decoded(err error) error {
	if err != nil {
		return fmt.Errorf("httpapi: %s: response: %w", h.target, err)
	}
	return nil
}

// attempt sends k's frame once, on the hop's connection, and waits for the
// answer. lost reports a connection that failed before the answer — the
// one failure a second attempt can cure. keep is false when the caller gave
// up on an answer a reader may still be handing over, so k must not go back
// to the pool.
func (h *hop) attempt(ctx context.Context, k *call, op Op, seq uint64) (lost, keep bool, err error) {
	if err := ctx.Err(); err != nil {
		// A write under a deadline already past would fail, and a failed
		// write kills the connection every other call is on.
		return false, true, fmt.Errorf("httpapi: %s: %w", h.target, err)
	}
	if h.rt != nil {
		if lost, err = h.roundTrip(ctx, k, op, seq); err != nil {
			err = fmt.Errorf("httpapi: %s: %w", h.target, err)
		}
		return lost, true, err
	}
	c, err := h.connect(ctx)
	if err != nil {
		var refused *upgradeRefused
		return !errors.As(err, &refused), true, fmt.Errorf("httpapi: %s: %w", h.target, err)
	}
	stream, err := c.register(k)
	if err != nil {
		return true, true, fmt.Errorf("httpapi: %s: %w", h.target, err)
	}
	// The call's deadline bounds the write as well as the wait: a peer that
	// stopped reading must not hold the write mutex, and with it every call
	// on the connection, past it.
	deadline, _ := ctx.Deadline()
	var expired <-chan time.Time
	if h.timeout > 0 && (deadline.IsZero() || time.Until(deadline) > h.timeout) {
		deadline = time.Now().Add(h.timeout)
		k.timer.Reset(h.timeout)
		expired = k.timer.C
	}
	c.write(finishFrame(k.out, &frame{op: op, stream: stream, seq: seq}), deadline)
	select {
	case <-k.done:
		if expired != nil {
			k.disarm()
		}
		if k.err != nil {
			return true, true, fmt.Errorf("httpapi: %s: connection lost: %w", h.target, k.err)
		}
		return false, true, nil
	case <-ctx.Done():
		if expired != nil {
			k.disarm()
		}
		return false, c.abandon(stream), fmt.Errorf("httpapi: %s: %w", h.target, ctx.Err())
	case <-expired:
		return false, c.abandon(stream), fmt.Errorf("httpapi: %s: no answer within %v: %w", h.target, h.timeout, context.DeadlineExceeded)
	}
}

// roundTrip sends k's frame as the body of one POST to the peer's PathFrames
// through the client's own RoundTripper, and reads the answer frame from
// the response body into k, bounded by the hop's timeout unless ctx's
// deadline is sooner. lost reports a request that got no whole answer —
// the failure a second attempt can cure; a status other than 200, a
// redirect included (a RoundTripper follows none), is an answer.
func (h *hop) roundTrip(ctx context.Context, k *call, op Op, seq uint64) (lost bool, err error) {
	if h.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.timeout)
		defer cancel()
	}
	body := bytes.NewReader(finishFrame(k.out, &frame{op: op, stream: 1, seq: seq}))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.frames, body)
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := h.rt.RoundTrip(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, fmt.Errorf("%w: %v", ctx.Err(), err)
		}
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		reason, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: the status alone is the error
		return false, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(reason))
	}
	br := bufio.NewReaderSize(resp.Body, postReadBuf)
	k.in = getBuf()
	if err := readFrame(br, &k.resp, k.in, dirAnswer); err != nil {
		putBuf(k.in)
		k.in = nil
		if _, bad := refusal(&k.resp, err); bad && h.reg != nil {
			h.reg.Counter(obs.MHTTPBadFrames).Inc()
		}
		if ctx.Err() != nil {
			return false, fmt.Errorf("%w: %v", ctx.Err(), err)
		}
		return true, fmt.Errorf("answer: %w", err)
	}
	_, _ = br.ReadByte() // reach the body's end, so the RoundTripper can reuse its connection
	return false, nil
}

// open reads the answer k holds: an ok answer's body and seq, a lag
// refusal as a *pipeline.LagError, any other refusal as an error quoting
// the peer. An answer under another op than the call's is refused whatever
// its body: the op is what names the body's grammar.
func (h *hop) open(k *call, op Op) ([]byte, uint64, error) {
	f := &k.resp
	switch {
	case f.op != op:
		return nil, 0, fmt.Errorf("httpapi: %s: a %v call was answered as %v", h.target, op, f.op)
	case f.status == statusOK:
		return f.body, f.seq, nil
	case f.status == statusLag:
		return nil, 0, &pipeline.LagError{Applied: f.seq}
	default:
		return nil, 0, fmt.Errorf("httpapi: %s: %v: %s", h.target, f.status, bytes.TrimSpace(f.body))
	}
}

// connect returns the hop's live connection, dialing one if there is none.
func (h *hop) connect(ctx context.Context) (*clientConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conn != nil && !h.conn.down.Load() {
		return h.conn, nil
	}
	c, err := h.dial(ctx)
	if err != nil {
		return nil, err
	}
	h.conn = c
	return c, nil
}

// upgradeRefused is a peer that answered the upgrade with anything but
// 101: a redirect, a 426 from a peer that wants another protocol, a 404
// from one that predates frames. It is an answer, so it is not retried.
type upgradeRefused struct{ status, reason string }

func (e *upgradeRefused) Error() string {
	return "frame upgrade refused: " + e.status + ": " + e.reason
}

// dial opens a connection and upgrades it, the whole handshake bounded by
// the hop's timeout and ctx, and starts its reader.
func (h *hop) dial(ctx context.Context) (*clientConn, error) {
	var deadline time.Time
	if h.timeout > 0 {
		deadline = time.Now().Add(h.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	nc, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(deadline)
	r := bufio.NewReader(nc)
	var resp *http.Response
	if _, err = io.WriteString(nc, h.upgrade); err == nil {
		resp, err = http.ReadResponse(r, nil)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), frameProtocol) {
		reason, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: the status alone is the error
		nc.Close()
		return nil, &upgradeRefused{status: resp.Status, reason: string(bytes.TrimSpace(reason))}
	}
	_ = nc.SetDeadline(time.Time{})
	c := &clientConn{nc: nc, r: r, reg: h.reg, pending: make(map[uint32]*call)}
	go c.read()
	return c, nil
}

// close shuts the hop's connection, failing any call in flight on it. A
// later call dials again.
func (h *hop) close() {
	h.mu.Lock()
	c := h.conn
	h.conn = nil
	h.mu.Unlock()
	if c != nil {
		c.fail(errHopClosed)
	}
}

var errHopClosed = errors.New("httpapi: hop closed")

// clientConn is one upgraded connection at the sender: calls write their
// frames under one mutex, and one reader hands each answer to the call
// waiting on its stream ID.
type clientConn struct {
	nc   net.Conn
	r    *bufio.Reader
	reg  *obs.Registry
	wmu  sync.Mutex  // one frame written at a time
	down atomic.Bool // the connection died; the hop dials a new one

	mu      sync.Mutex
	pending map[uint32]*call // by stream ID; nil once the connection died
	next    uint32
	err     error // why it died
}

// register gives k the next free stream ID and files it as pending.
func (c *clientConn) register(k *call) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	c.next++
	for c.next == 0 || c.pending[c.next] != nil { // after 2^32 calls the IDs wrap
		c.next++
	}
	c.pending[c.next] = k
	k.err = nil
	return c.next, nil
}

// abandon withdraws a call whose caller stopped waiting; a late answer is
// then read and dropped. It reports whether the call was still pending,
// that is, whether nothing else holds it now.
func (c *clientConn) abandon(stream uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[stream]; ok {
		delete(c.pending, stream)
		return true
	}
	return false
}

// write sends one whole frame by deadline (zero: no deadline); a failed
// write — one that missed its deadline included, since the frame may have
// gone out in part — kills the connection, which fails the call that wrote
// too.
func (c *clientConn) write(b []byte, deadline time.Time) {
	c.wmu.Lock()
	_ = c.nc.SetWriteDeadline(deadline)
	_, err := c.nc.Write(b)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// read is the connection's reader: it hands each answer to its call until
// the connection fails, and then fails every call still pending.
func (c *clientConn) read() {
	for {
		in := getBuf()
		var f frame
		if err := readFrame(c.r, &f, in, dirAnswer); err != nil {
			putBuf(in)
			if _, bad := refusal(&f, err); bad && c.reg != nil {
				c.reg.Counter(obs.MHTTPBadFrames).Inc()
			}
			c.fail(err)
			return
		}
		c.mu.Lock()
		k := c.pending[f.stream]
		delete(c.pending, f.stream)
		c.mu.Unlock()
		if k == nil { // its caller gave up waiting
			putBuf(in)
			continue
		}
		k.resp, k.in = f, in
		k.done <- struct{}{}
	}
}

// fail kills the connection once, with err as the reason every pending
// call and every later register sees.
func (c *clientConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		c.down.Store(true)
	}
	err, pending := c.err, c.pending
	c.pending = nil
	c.mu.Unlock()
	c.nc.Close()
	for _, k := range pending {
		k.err = err
		k.done <- struct{}{}
	}
}
