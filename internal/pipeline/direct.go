package pipeline

import (
	"context"
	"time"

	"dssp/internal/wire"
)

// HomeBackend is the trusted execution surface a direct transport drives:
// open-and-execute for sealed queries and updates. It is declared here so
// the pipeline does not depend on the home tier's packages;
// *homeserver.Server satisfies it.
type HomeBackend interface {
	ExecQuery(sq wire.SealedQuery) (res wire.SealedResult, empty bool, scanned int, err error)
	ExecUpdate(su wire.SealedUpdate) (affected int, seq uint64, err error)
}

// directTransport executes sealed statements against an in-process home
// backend on the caller's goroutine — the transport of the non-simulated,
// non-networked deployment (dssp.Client, examples, experiments).
type directTransport struct {
	home HomeBackend
}

// NewDirectTransport returns a transport that calls the given home backend
// directly.
func NewDirectTransport(home HomeBackend) Transport {
	return directTransport{home: home}
}

func (t directTransport) ExecQuery(_ context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	res, empty, scanned, err := t.home.ExecQuery(sq)
	done(ExecQueryResult{Result: res, Empty: empty, Scanned: scanned}, err)
}

func (t directTransport) ExecUpdate(_ context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	n, seq, err := t.home.ExecUpdate(su)
	done(ExecUpdateResult{Affected: n, Seq: seq}, err)
}

// delayTransport adds a fixed one-way delay before forwarding, modelling
// the WAN hop between a DSSP node and a distant home server for
// experiments and benchmarks that need misses to overlap in real time.
type delayTransport struct {
	inner Transport
	delay time.Duration
}

// WithDelay wraps a transport with a fixed pre-forward delay.
func WithDelay(inner Transport, delay time.Duration) Transport {
	if delay <= 0 {
		return inner
	}
	return delayTransport{inner: inner, delay: delay}
}

func (t delayTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	sleep(ctx, t.delay)
	t.inner.ExecQuery(ctx, sq, done)
}

func (t delayTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	sleep(ctx, t.delay)
	t.inner.ExecUpdate(ctx, su, done)
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
