package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"dssp/internal/obs"
)

// Content-Type values of the two body kinds, each one slice that every
// request and response header map of its kind holds: net/http only reads a
// header's value slice (the server clones the map before it writes it), so
// setting the type costs no allocation.
var (
	wireContentTypeValue  = []string{wireContentType}
	bytesContentTypeValue = []string{"application/octet-stream"}
)

// hop is one endpoint of one peer, as the process that sends to it holds
// it: everything about a round trip that does not change from one to the
// next, worked out when the NodeProxy, node transport or replica
// stream is built. Every POST between processes leaves through send.
//
// A hop goes straight onto the http.Client's Transport. Client.Do exists
// to follow redirects, carry cookies and rewrite requests between attempts,
// and pays for that on every call — a header clone, a redirect copier, for
// a Transport it does not know a goroutine per deadline; an RPC hop must do
// none of it (a sealed statement never follows an untrusted node's 307: the
// redirect comes back as the response and is an error like any other
// non-200). What it keeps of the client is what the deployment configures:
// the Transport (connection reuse, the bench's instrumented wrapper) and
// the Timeout.
type hop struct {
	rt      http.RoundTripper
	timeout time.Duration // bounds a round trip whose context does not bound it sooner; 0 is no bound
	target  string        // the URL as configured, for errors
	url     *url.URL      // target, parsed once; requests share it, as a RoundTripper only reads its request
	header  http.Header   // the Content-Type alone, shared the same way
	err     error         // target did not parse: every send reports it
}

// newHop builds the hop to target (a base URL plus an API path). A nil
// client gets a DefaultTimeout-bounded one; ctype is one of the shared
// Content-Type values.
func newHop(client *http.Client, target string, ctype []string) *hop {
	client = defaultClient(client)
	h := &hop{
		rt: client.Transport, timeout: client.Timeout, target: target,
		header: http.Header{"Content-Type": ctype},
	}
	if h.rt == nil {
		h.rt = http.DefaultTransport
	}
	h.url, h.err = url.Parse(target)
	return h
}

// hopCall is one attempt's state, in one allocation: the reader over the
// request body and, for an attempt under the hop's own deadline, the
// response body whose Close releases that deadline's timer.
type hopCall struct {
	body   bytes.Reader
	resp   io.ReadCloser
	cancel context.CancelFunc
}

func (c *hopCall) Read(p []byte) (int, error) { return c.resp.Read(p) }

func (c *hopCall) Close() error {
	err := c.resp.Close()
	c.cancel()
	return err
}

// send is the request builder: one attempt, body to the hop's URL, plus one
// extra header when name is not empty (the staleness headers). The request
// is assembled by hand from the hop's parsed URL and shared header map. The
// hop's timeout becomes the context's deadline unless the caller's is
// sooner, and is released when the response body is closed. body must
// outlive the call and never change: the transport may still be reading it
// after RoundTrip returns, and re-reads it through GetBody when a kept-alive
// connection turns out to be closed before a byte was written (the one
// resend that is safe for an update too).
func (h *hop) send(ctx context.Context, body []byte, name, value string) (*http.Response, error) {
	if h.err != nil {
		return nil, fmt.Errorf("httpapi: %s: %w", h.target, h.err)
	}
	call := new(hopCall)
	call.body.Reset(body)
	header := h.header
	if name != "" {
		header = http.Header{"Content-Type": h.header["Content-Type"], name: {value}}
	}
	if h.timeout > 0 {
		if d, ok := ctx.Deadline(); !ok || time.Until(d) > h.timeout {
			ctx, call.cancel = context.WithTimeout(ctx, h.timeout)
		}
	}
	req := (&http.Request{
		Method: http.MethodPost, URL: h.url, Host: h.url.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: header, ContentLength: int64(len(body)),
		// NopCloser over a *bytes.Reader and nothing of our own: it is the
		// shape the transport recognises as in memory, and only then does it
		// write the headers and the body in one packet.
		Body:    io.NopCloser(&call.body),
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}).WithContext(ctx)
	resp, err := h.rt.RoundTrip(req)
	if err != nil {
		if call.cancel != nil {
			call.cancel()
		}
		return nil, fmt.Errorf("httpapi: %s: %w", h.target, err)
	}
	if call.cancel != nil {
		call.resp, resp.Body = resp.Body, call
	}
	return resp, nil
}

// exchange sends body and returns the peer's response, whatever its status.
// The context bounds the whole exchange. When idempotent is true (queries,
// invalidations and the migration stream), a connection-level error is
// retried once after a short backoff, resending the same bytes — a response
// that arrived, whatever its status, is never retried, and updates never
// are (a lost ack does not prove the update was not applied). reg, when
// non-nil, counts retries.
func (h *hop) exchange(ctx context.Context, body []byte, name, value string, idempotent bool, reg *obs.Registry) (*http.Response, error) {
	r, err := h.send(ctx, body, name, value)
	if err == nil || !idempotent || ctx.Err() != nil {
		return r, err
	}
	if reg != nil {
		reg.Counter(obs.MHTTPRetries).Inc()
	}
	select {
	case <-time.After(retryBackoff):
	case <-ctx.Done():
		return nil, err
	}
	return h.send(ctx, body, name, value)
}

// post sends one hop message and decodes the peer's answer into resp. name
// and value are send's extra header ("" for none).
func (h *hop) post(ctx context.Context, name, value string, req, resp message, idempotent bool, reg *obs.Registry) error {
	r, err := h.exchange(ctx, encodeMessage(req), name, value, idempotent, reg)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return statusError(h.target, r)
	}
	if err := decodeResponse(r, resp); err != nil {
		return fmt.Errorf("httpapi: %s: response: %w", h.target, err)
	}
	return nil
}

// postBytes sends one raw request body and returns the raw response body
// (at most maxBatchBytes of it). It is the migration stream's transport:
// bucket exports, imports, and drops are all idempotent (exports copy,
// imports skip keys the cache already holds, drops of an absent bucket
// are no-ops), so a connection-level error is retried once like an
// idempotent query.
func (h *hop) postBytes(ctx context.Context, body []byte, reg *obs.Registry) ([]byte, error) {
	r, err := h.exchange(ctx, body, "", "", true, reg)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, statusError(h.target, r)
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err == nil && len(raw) > maxBatchBytes {
		err = errTooLarge
	}
	return raw, err
}

// statusError renders a non-200 response as an error, quoting the head of
// its body.
func statusError(url string, r *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(r.Body, 4096)) // best effort: the status alone is the error
	return fmt.Errorf("httpapi: %s: %s: %s", url, r.Status, bytes.TrimSpace(msg))
}
