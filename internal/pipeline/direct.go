package pipeline

import (
	"context"

	"dssp/internal/homeserver"
	"dssp/internal/wire"
)

// HomeBackend is the trusted execution surface a direct transport drives:
// open-and-execute for sealed queries and updates. *homeserver.Server
// satisfies it. A query's answer is lent until its Release: the direct
// transport hands it to done and releases it when done returns
// (Transport).
type HomeBackend interface {
	ExecQuery(sq wire.SealedQuery) (homeserver.Answer, error)
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
	a, err := t.home.ExecQuery(sq)
	done(ExecQueryResult{Result: a.Result, Empty: a.Empty, Scanned: a.Scanned}, err)
	a.Release()
}

func (t directTransport) ExecUpdate(_ context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	n, seq, err := t.home.ExecUpdate(su)
	done(ExecUpdateResult{Affected: n, Seq: seq}, err)
}
