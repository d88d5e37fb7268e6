// Package leakage is the adversary's-eye audit of the reproduction: an
// observer standing at a trust boundary (a DSSP node, or the shard
// router) that records exactly what the sealed traffic reveals to the
// untrusted infrastructure at each exposure level (§2.3 of the paper).
//
// The observer sees only what the DSSP sees — sealed queries, sealed
// updates, sealed results, and invalidation decisions — and tallies the
// structure an adversary could extract from them: distinct sealed-key
// access frequencies, template-frequency histograms (only for templates
// the exposure level leaves visible), parameter values in the clear,
// update→invalidation timing correlations, and the plaintext/sealed
// byte split of everything that transits the boundary.
//
// These numbers are deliberately NOT obs metrics: the obs registry's
// shape is held identical between the simulator and the HTTP deployment
// by a parity test, and the audit is an experiment instrument, not a
// production signal. It hangs off pipeline.Options.Leakage and reports
// through its own Report struct.
package leakage

import (
	"sync"
	"time"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// pendingCap bounds the update-time map used for update→invalidation
// timing: an adversary correlating in real time would use a window too.
const pendingCap = 4096

// Observer implements pipeline.LeakageObserver at one vantage point.
// Safe for concurrent use.
type Observer struct {
	vantage string
	clock   obs.Clock

	mu sync.Mutex

	queries, hits int64
	updates       int64

	keyAccess    map[string]int64 // sealed lookup key -> accesses
	templateFreq map[string]int64 // visible template label -> occurrences
	params       int64            // parameter values seen in the clear

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

// NewObserver builds an observer for one vantage point ("node", "node-2",
// "router", ...). clock supplies the timing for update→invalidation
// correlation; nil uses a wall clock (the simulator passes virtual time).
func NewObserver(vantage string, clock obs.Clock) *Observer {
	if clock == nil {
		clock = obs.WallClock()
	}
	return &Observer{
		vantage:      vantage,
		clock:        clock,
		keyAccess:    make(map[string]int64),
		templateFreq: make(map[string]int64),
		pending:      make(map[obs.TraceID]time.Duration),
	}
}

// ObserveQuery implements pipeline.LeakageObserver.
func (o *Observer) ObserveQuery(sq wire.SealedQuery, hit bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queries++
	if hit {
		o.hits++
	}
	o.keyAccess[sq.Key]++
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

// ObserveResult implements pipeline.LeakageObserver.
func (o *Observer) ObserveResult(sq wire.SealedQuery, res wire.SealedResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if res.Result != nil {
		o.plaintext += int64(res.Size()) // view exposure: rows in the clear
	} else {
		o.sealed += int64(len(res.Cipher))
	}
}

// ObserveUpdate implements pipeline.LeakageObserver.
func (o *Observer) ObserveUpdate(su wire.SealedUpdate) {
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

// ObserveInvalidation implements pipeline.LeakageObserver.
func (o *Observer) ObserveInvalidation(su wire.SealedUpdate, invalidated int) {
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
	for _, n := range o.keyAccess {
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

// Merge folds several vantage points' reports into one fleet-wide view
// (the adversary controls the whole DSSP, so it sees all of them).
func Merge(vantage string, reports ...Report) Report {
	out := Report{Vantage: vantage}
	var delaySum time.Duration
	var delayN int64
	for _, r := range reports {
		out.Queries += r.Queries
		out.Hits += r.Hits
		out.Updates += r.Updates
		out.DistinctKeys += r.DistinctKeys
		out.KeyAccesses += r.KeyAccesses
		if r.MaxKeyAccesses > out.MaxKeyAccesses {
			out.MaxKeyAccesses = r.MaxKeyAccesses
		}
		out.VisibleParams += r.VisibleParams
		out.PlaintextBytes += r.PlaintextBytes
		out.SealedBytes += r.SealedBytes
		out.Invalidations += r.Invalidations
		out.InvalidatedEntries += r.InvalidatedEntries
		out.CorrelatedInvalidations += r.CorrelatedInvalidations
		for k, v := range r.TemplateFreq {
			if out.TemplateFreq == nil {
				out.TemplateFreq = make(map[string]int64)
			}
			out.TemplateFreq[k] += v
		}
		if r.MeanInvalidationDelay > 0 {
			delaySum += r.MeanInvalidationDelay
			delayN++
		}
	}
	for k := range out.TemplateFreq {
		if k != obs.BlindTemplate {
			out.VisibleTemplates++
		}
	}
	if total := out.PlaintextBytes + out.SealedBytes; total > 0 {
		out.PlaintextFrac = float64(out.PlaintextBytes) / float64(total)
	}
	if delayN > 0 {
		out.MeanInvalidationDelay = delaySum / time.Duration(delayN)
	}
	return out
}
