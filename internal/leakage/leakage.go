// Package leakage is the adversary's-eye audit of the reproduction: an
// observer standing where the untrusted DSSP stands, at a node's sealed
// seams, that records exactly what the sealed traffic reveals to it at
// each exposure level (§2.3 of the paper).
//
// The observer has two inputs, both decorators on the interfaces a node's
// pipeline is built from. Observer.Cache wraps the node's pipeline.Cache:
// it sees each sealed query and whether the cache answered it, each
// sealed result that crosses the node (a hit served, or a miss's answer
// stored on its way back from home), and each update's invalidation with
// the entries it dropped — the node's own updates and those fanned out
// from other nodes alike. Observer.Transport wraps the node's
// pipeline.Transport: it sees each sealed update the node forwards home,
// and when. The pipeline itself does not know the audit exists.
//
// From that traffic the observer tallies the structure an adversary could
// extract: distinct sealed-key access frequencies, template-frequency
// histograms (only for templates the exposure level leaves visible),
// parameter values in the clear, update→invalidation timing
// correlations, and the plaintext/sealed byte split of everything that
// transits the boundary.
//
// These numbers are deliberately NOT obs metrics: the obs registry's
// shape is held identical between the simulator and the HTTP deployment
// by a parity test, and the audit is an experiment instrument, not a
// production signal. It reports through its own Report struct.
package leakage

import (
	"context"
	"strings"
	"sync"
	"time"

	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/wire"
)

// pendingCap bounds the update-time map used for update→invalidation
// timing: an adversary correlating in real time would use a window too.
const pendingCap = 4096

// Observer tallies what one vantage point sees. Safe for concurrent use:
// one observer may watch several nodes, as an adversary who controls the
// whole DSSP does.
type Observer struct {
	vantage string
	clock   obs.Clock

	mu sync.Mutex

	queries, hits int64
	updates       int64

	keyAccess    map[string]*int64 // sealed lookup key -> accesses
	templateFreq map[string]int64  // visible template label -> occurrences
	params       int64             // parameter values seen in the clear

	plaintext int64 // bytes readable at this vantage point
	sealed    int64 // bytes that transit as ciphertext/tokens

	invalidations      int64
	invalidatedEntries int64
	correlated         int64 // invalidations whose update template was visible

	// pending maps an observed update's trace ID to its arrival time, so
	// the matching invalidation yields the update→invalidation delay the
	// adversary can measure.
	pending    map[obs.TraceID]time.Duration
	delaySum   time.Duration
	delayCount int64
}

// NewObserver builds an observer for one vantage point ("node",
// "node-2", ...). clock supplies the timing for update→invalidation
// correlation; nil uses a wall clock (the simulator passes virtual time).
func NewObserver(vantage string, clock obs.Clock) *Observer {
	if clock == nil {
		clock = obs.WallClock()
	}
	return &Observer{
		vantage:      vantage,
		clock:        clock,
		keyAccess:    make(map[string]*int64),
		templateFreq: make(map[string]int64),
		pending:      make(map[obs.TraceID]time.Duration),
	}
}

// Cache wraps a node's cache so the observer sees the queries, results
// and invalidations that pass through it. Wrapping the cache, not the
// node's pipeline.Front, is what lets the observer see fan-out: other
// nodes' updates reach this node's invalidation monitor through
// Pipeline.MonitorUpdate, never through its Front. A coalesced flight
// stores its result once, so the observer sees one result per flight.
func (o *Observer) Cache(c pipeline.Cache) pipeline.Cache { return auditedCache{c, o} }

// Transport wraps a node's transport so the observer sees each update the
// node forwards home, and when; queries pass straight through.
func (o *Observer) Transport(t pipeline.Transport) pipeline.Transport {
	return auditedTransport{t, o}
}

type auditedCache struct {
	inner pipeline.Cache
	o     *Observer
}

func (c auditedCache) HandleQuery(q wire.SealedQuery) (wire.SealedResult, bool) {
	res, hit := c.inner.HandleQuery(q)
	c.o.query(q, hit)
	if hit {
		c.o.result(res)
	}
	return res, hit
}

func (c auditedCache) StoreResult(q wire.SealedQuery, r wire.SealedResult, empty bool) {
	c.inner.StoreResult(q, r, empty)
	c.o.result(r)
}

func (c auditedCache) OnUpdateCompleted(u wire.SealedUpdate) int {
	n := c.inner.OnUpdateCompleted(u)
	c.o.invalidation(u, n)
	return n
}

func (c auditedCache) OnUpdatesCompleted(us []wire.SealedUpdate) []int {
	counts := c.inner.OnUpdatesCompleted(us)
	for i, u := range us {
		c.o.invalidation(u, counts[i])
	}
	return counts
}

type auditedTransport struct {
	inner pipeline.Transport
	o     *Observer
}

func (t auditedTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	t.inner.ExecQuery(ctx, sq, done)
}

func (t auditedTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	t.o.update(su)
	t.inner.ExecUpdate(ctx, su, done)
}

// query records a sealed query arriving at the node and whether the cache
// answered it: the access pattern.
func (o *Observer) query(sq wire.SealedQuery, hit bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queries++
	if hit {
		o.hits++
	}
	// The key may be lent (pipeline.Front): the map keeps a copy,
	// made when it gains the key, and an access counts through a pointer,
	// since an assignment to a string key stores the string it is given.
	n := o.keyAccess[sq.Key]
	if n == nil {
		n = new(int64)
		o.keyAccess[strings.Clone(sq.Key)] = n
	}
	*n++
	o.templateFreq[obs.Tmpl(sq.TemplateID)]++
	if sq.TemplateID != "" {
		o.plaintext += int64(len(sq.TemplateID))
	}
	for _, v := range sq.Params {
		o.params++
		o.plaintext += int64(len(v.String()))
	}
	o.sealed += int64(len(sq.Opaque))
	if len(sq.Params) == 0 {
		// Below stmt exposure the lookup key is a deterministic token,
		// not readable structure.
		o.sealed += int64(len(sq.Key))
	}
}

// result records a sealed result crossing the node.
func (o *Observer) result(res wire.SealedResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if res.Cipher == nil {
		// View exposure: rows in the clear, by pointer or lent as their
		// encoding (wire.ReadSealedResult); no result adds nothing.
		o.plaintext += int64(res.Size())
	} else {
		o.sealed += int64(len(res.Cipher))
	}
}

// update records a sealed update forwarded home, and its arrival time.
func (o *Observer) update(su wire.SealedUpdate) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.updates++
	if su.TemplateID != "" {
		o.templateFreq[obs.Tmpl(su.TemplateID)]++
		o.plaintext += int64(len(su.TemplateID))
	}
	for _, v := range su.Params {
		o.params++
		o.plaintext += int64(len(v.String()))
	}
	o.sealed += int64(len(su.Opaque))
	if !su.TraceID.IsZero() && len(o.pending) < pendingCap {
		o.pending[su.TraceID] = o.clock.Now()
	}
}

// invalidation records a completed update's invalidation at the node and
// the entries it dropped: the update→invalidation correlation.
func (o *Observer) invalidation(su wire.SealedUpdate, invalidated int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.invalidations++
	o.invalidatedEntries += int64(invalidated)
	if su.TemplateID != "" && invalidated > 0 {
		// The adversary links a named update template to the cache
		// entries it killed — the correlation §2.3 warns about.
		o.correlated++
	}
	if t, ok := o.pending[su.TraceID]; ok {
		delete(o.pending, su.TraceID)
		o.delaySum += o.clock.Now() - t
		o.delayCount++
	}
}

// Report is the audit summary for one vantage point. The starred fields
// are monotone in exposure level by construction: raising exposure can
// only reveal more templates, more parameters, and more plaintext bytes.
type Report struct {
	Vantage string `json:"vantage"`

	Queries int64 `json:"queries"`
	Hits    int64 `json:"hits"`
	Updates int64 `json:"updates"`

	// DistinctKeys and MaxKeyAccesses describe the access-pattern
	// leakage present at every exposure level: even blind traffic
	// reveals which (sealed) item is hot.
	DistinctKeys   int   `json:"distinct_keys"`
	KeyAccesses    int64 `json:"key_accesses"`
	MaxKeyAccesses int64 `json:"max_key_accesses"`

	// VisibleTemplates* counts distinct template identities readable at
	// this vantage point (0 at blind exposure); TemplateFreq is their
	// frequency histogram, with "(blind)" aggregating hidden traffic.
	VisibleTemplates int              `json:"visible_templates"`
	TemplateFreq     map[string]int64 `json:"template_freq,omitempty"`

	// VisibleParams* counts parameter values seen in the clear (0 below
	// stmt exposure).
	VisibleParams int64 `json:"visible_params"`

	// PlaintextBytes*, SealedBytes, and PlaintextFrac* split the bytes
	// transiting the boundary into what the adversary can read and what
	// stays sealed.
	PlaintextBytes int64   `json:"plaintext_bytes"`
	SealedBytes    int64   `json:"sealed_bytes"`
	PlaintextFrac  float64 `json:"plaintext_frac"`

	// Invalidation-correlation leakage: how many invalidations carried a
	// visible update template, and the mean update→invalidation delay
	// the adversary can measure.
	Invalidations           int64         `json:"invalidations"`
	InvalidatedEntries      int64         `json:"invalidated_entries"`
	CorrelatedInvalidations int64         `json:"correlated_invalidations"`
	MeanInvalidationDelay   time.Duration `json:"mean_invalidation_delay_ns"`
}

// Report snapshots the observer.
func (o *Observer) Report() Report {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := Report{
		Vantage:                 o.vantage,
		Queries:                 o.queries,
		Hits:                    o.hits,
		Updates:                 o.updates,
		DistinctKeys:            len(o.keyAccess),
		VisibleParams:           o.params,
		PlaintextBytes:          o.plaintext,
		SealedBytes:             o.sealed,
		Invalidations:           o.invalidations,
		InvalidatedEntries:      o.invalidatedEntries,
		CorrelatedInvalidations: o.correlated,
	}
	for _, p := range o.keyAccess {
		n := *p
		r.KeyAccesses += n
		if n > r.MaxKeyAccesses {
			r.MaxKeyAccesses = n
		}
	}
	if len(o.templateFreq) > 0 {
		r.TemplateFreq = make(map[string]int64, len(o.templateFreq))
		for k, v := range o.templateFreq {
			r.TemplateFreq[k] = v
			if k != obs.BlindTemplate {
				r.VisibleTemplates++
			}
		}
	}
	if total := r.PlaintextBytes + r.SealedBytes; total > 0 {
		r.PlaintextFrac = float64(r.PlaintextBytes) / float64(total)
	}
	if o.delayCount > 0 {
		r.MeanInvalidationDelay = o.delaySum / time.Duration(o.delayCount)
	}
	return r
}
