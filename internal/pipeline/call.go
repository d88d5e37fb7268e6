package pipeline

import (
	"context"
	"sync/atomic"
	"time"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// A query miss and an update each run as one pooled call: the state the
// continuation-passing stages hand each other — the statement, its start
// time and network span, the caller's continuation — lives in a missCall
// or an updateCall taken from the pipeline's pool, and every continuation
// the pipeline passes on (to the transport, to the batcher) is a method
// value bound once, when the pool made the call. A miss or an update
// therefore allocates nothing of the pipeline's own once the pool is warm.
//
// A call has up to two holders: its continuation, and the caller blocked
// in a Sync form. Each releases it once, and the last to do so returns it
// to the pool. A Sync caller that gives up on ctx.Done() thus never
// recycles a call whose continuation has yet to write its reply.

// missCall is one query miss. The leader of a single flight is itself
// the flight: it sits in Pipeline.flights under the sealed key, and the
// misses that join it append to its waiters.
type missCall struct {
	p     *Pipeline
	sq    wire.SealedQuery
	tmpl  string
	start time.Duration
	net   obs.Span
	done  func(QueryReply, error) // the caller's continuation, or syncDone

	waiters []func(QueryReply, error) // joined misses; guarded by p.mu while in flights

	sc      syncCall[QueryReply]
	holders atomic.Int32

	// Bound once when the pool makes the call.
	resolveFn func(ExecQueryResult, error) // resolve
	syncDone  func(QueryReply, error)      // sc.done
}

func (p *Pipeline) newMissCall() any {
	c := &missCall{p: p}
	c.resolveFn = c.resolve
	c.syncDone = c.sc.done
	return c
}

// takeMiss readies a pooled call for a miss that answers done. A nil done
// is QuerySync's: the call answers its syncCall, and the caller waiting on
// that holds the call beside the continuation.
func (p *Pipeline) takeMiss(sq wire.SealedQuery, start time.Duration, done func(QueryReply, error)) *missCall {
	c := p.missPool.Get().(*missCall)
	c.sq, c.tmpl, c.start, c.done = sq, obs.Tmpl(sq.TemplateID), start, done
	c.holders.Store(1)
	if done == nil {
		c.done = c.syncDone
		c.holders.Store(2)
	}
	return c
}

// release drops one holder's claim; the last returns the call to the pool.
func (c *missCall) release() {
	if c.holders.Add(-1) != 0 {
		return
	}
	c.sq, c.tmpl, c.net, c.done = wire.SealedQuery{}, "", obs.Span{}, nil
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	c.sc.reset()
	c.p.missPool.Put(c)
}

// resolve is a miss's continuation: it stores the answer, takes the call
// out of the flight map, and answers the caller and every joined miss.
func (c *missCall) resolve(er ExecQueryResult, err error) {
	p := c.p
	c.net.End()
	if err == nil {
		p.cache.StoreResult(c.sq, er.Result, er.Empty)
	}

	p.mu.Lock()
	if p.flights[c.sq.Key] == c {
		delete(p.flights, c.sq.Key)
	}
	waiters := c.waiters // no miss joins once the call left the map
	p.mu.Unlock()

	if err != nil {
		c.done(QueryReply{}, err)
		for _, w := range waiters {
			w(QueryReply{}, err)
		}
	} else {
		p.request(obs.KindQuery, c.tmpl, c.start)
		c.done(QueryReply{Result: er.Result, Scanned: er.Scanned}, nil)
		for _, w := range waiters {
			w(QueryReply{Result: er.Result, Coalesced: true}, nil)
		}
	}
	c.release()
}

// updateCall is one update, from its forward to its invalidation count,
// or — for MonitorSync — one already-confirmed update's invalidation.
type updateCall struct {
	p        *Pipeline
	su       wire.SealedUpdate
	tmpl     string
	start    time.Duration
	net      obs.Span
	affected int
	seq      uint64
	forward  bool // an Update's call, which records the request histogram
	done     func(UpdateReply, error)

	sc      syncCall[UpdateReply]
	holders atomic.Int32

	// Bound once when the pool makes the call.
	confirmedFn   func(ExecUpdateResult, error) // confirmed
	invalidatedFn func(int)                     // invalidated
	syncDone      func(UpdateReply, error)      // sc.done
}

func (p *Pipeline) newUpdateCall() any {
	c := &updateCall{p: p}
	c.confirmedFn = c.confirmed
	c.invalidatedFn = c.invalidated
	c.syncDone = c.sc.done
	return c
}

// takeUpdate readies a pooled call as takeMiss does; a nil done is
// UpdateSync's or MonitorSync's.
func (p *Pipeline) takeUpdate(su wire.SealedUpdate, done func(UpdateReply, error)) *updateCall {
	c := p.updatePool.Get().(*updateCall)
	c.su, c.done = su, done
	c.holders.Store(1)
	if done == nil {
		c.done = c.syncDone
		c.holders.Store(2)
	}
	return c
}

// release drops one holder's claim, as missCall.release does.
func (c *updateCall) release() {
	if c.holders.Add(-1) != 0 {
		return
	}
	c.su, c.tmpl, c.net, c.done = wire.SealedUpdate{}, "", obs.Span{}, nil
	c.start, c.affected, c.seq, c.forward = 0, 0, 0, false
	c.sc.reset()
	c.p.updatePool.Put(c)
}

// confirmed is an update's continuation at the home server's answer: it
// feeds the confirmed update to the invalidation monitor, which resolves
// the call through invalidated — inline, or at the interval's flush.
func (c *updateCall) confirmed(ur ExecUpdateResult, err error) {
	c.net.End()
	if err != nil {
		c.done(UpdateReply{}, err)
		c.release()
		return
	}
	c.affected, c.seq = ur.Affected, ur.Seq
	c.p.MonitorUpdate(c.su, ur.Seq, c.invalidatedFn)
}

// invalidated is the call's last continuation, with this node's count.
func (c *updateCall) invalidated(n int) {
	if c.forward {
		c.p.request(obs.KindUpdate, c.tmpl, c.start)
	}
	c.done(UpdateReply{Affected: c.affected, Invalidated: n, Seq: c.seq}, nil)
	c.release()
}

// syncCall carries the outcome of one call from its continuation to the
// caller blocked in the Sync form. A transport that resolves before it
// returns has run the continuation by the time the caller looks: it then
// reads the outcome and is gone. Only a caller that finds the call still
// pending waits on ch, which it makes the first time and the pooled call
// keeps.
type syncCall[R any] struct {
	reply R
	err   error
	state atomic.Int32  // callPending, then callDone or callWaiting, whichever side moves first
	ch    chan struct{} // buffered; set before state becomes callWaiting, signalled by done
}

const (
	callPending int32 = iota
	callDone          // the continuation ran first: reply and err are set
	callWaiting       // the caller got there first and waits on ch
)

func (c *syncCall[R]) done(reply R, err error) {
	c.reply, c.err = reply, err
	if !c.state.CompareAndSwap(callPending, callDone) {
		c.ch <- struct{}{}
	}
}

func (c *syncCall[R]) wait(ctx context.Context) (R, error) {
	if c.state.Load() != callDone {
		if c.ch == nil {
			c.ch = make(chan struct{}, 1)
		}
		if c.state.CompareAndSwap(callPending, callWaiting) {
			select {
			case <-c.ch:
			case <-ctx.Done():
				// done may still run, and write reply: do not read it.
				var none R
				return none, ctx.Err()
			}
		}
	}
	return c.reply, c.err
}

// reset readies the outcome for the call's next use. Only the last
// holder calls it, after done has signalled, so a signal a caller that
// gave up never took is drained here.
func (c *syncCall[R]) reset() {
	var none R
	c.reply, c.err = none, nil
	c.state.Store(callPending)
	if c.ch != nil {
		select {
		case <-c.ch:
		default:
		}
	}
}
