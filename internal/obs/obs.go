// Package obs is the observability core shared by every deployment mode of
// the reproduction: the in-process System, the discrete-event simulator,
// and the networked HTTP deployment. It provides concurrency-safe atomic
// counters, gauges, and log-bucketed latency histograms organized in a
// Registry keyed by metric name plus labels (template ID, pipeline
// stage), plus lightweight request tracing with per-stage spans recorded
// against a pluggable clock (wall time or simulator virtual time).
//
// The point is the paper's causal chain (§5): invalidation precision →
// cache hit rate → home-server load → response time. With one metric
// vocabulary (names.go) used by both the simulator and the real HTTP
// stack, every link of that chain is observable per template and per
// stage, and a simulated run and a deployed run produce snapshots of
// identical shape.
package obs

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L constructs a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets is the number of finite histogram buckets. Bucket i covers
// durations up to 1µs·2^i, so the boundaries span 1µs to ~134s; a final
// overflow bucket catches everything beyond. The boundaries are fixed so
// snapshots from different processes (or from virtual and wall time) are
// always mergeable bucket by bucket.
const NumBuckets = 28

// BucketBounds returns the fixed upper bounds of the finite buckets.
func BucketBounds() []time.Duration {
	b := make([]time.Duration, NumBuckets)
	for i := range b {
		b[i] = time.Microsecond << i
	}
	return b
}

// bucketIndex returns the index of the finite or overflow bucket for d.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// ceil(d/µs), then the smallest i with 2^i µs >= that.
	u := uint64((d + time.Microsecond - 1) / time.Microsecond)
	i := bits.Len64(u - 1)
	if i > NumBuckets {
		return NumBuckets // overflow bucket
	}
	return i
}

// Histogram is a log-bucketed latency histogram with fixed boundaries.
// Observations, the running sum, and the count are all atomic, so it is
// safe for concurrent use without locks.
type Histogram struct {
	counts [NumBuckets + 1]atomic.Int64 // last bucket is +Inf
	sum    atomic.Int64                 // nanoseconds
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// metric kinds, stringly typed so snapshots serialize naturally.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

type instrument struct {
	name   string
	labels []Label // sorted by key
	typ    string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// DefaultLabelCap bounds how many distinct labeled instruments one metric
// name may register. Label values come from sealed traffic (template
// IDs), so without a cap an adversary flooding a node with
// forged template IDs would grow the registry — and every snapshot —
// without limit. At the cap, excess label sets coalesce into one overflow
// instrument per name whose label values are all OverflowLabelValue: the
// storm stays measurable, the memory stays bounded.
const DefaultLabelCap = 512

// OverflowLabelValue replaces every label value of an instrument that
// would exceed its metric name's cardinality cap.
const OverflowLabelValue = "(other)"

// Registry holds an application's instruments, keyed by name plus labels.
// Instrument lookup takes a short lock; the instruments themselves are
// lock-free, so hot paths can cache the returned handles.
type Registry struct {
	mu       sync.Mutex
	inst     map[string]*instrument
	labelCap int
	perName  map[string]int
}

// NewRegistry returns an empty registry with the default cardinality cap.
func NewRegistry() *Registry {
	return &Registry{inst: make(map[string]*instrument), labelCap: DefaultLabelCap, perName: make(map[string]int)}
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	slices.SortFunc(out, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return out
}

func metricKey(name string, sorted []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range sorted {
		b.WriteByte(0x1f)
		b.WriteString(l.Key)
		b.WriteByte(0x1e)
		b.WriteString(l.Value)
	}
	return b.String()
}

func (r *Registry) get(name, typ string, labels []Label) *instrument {
	sorted := sortLabels(labels)
	key := metricKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.inst[key]; ok {
		if in.typ != typ {
			panic("obs: metric " + name + " registered as " + in.typ + ", requested as " + typ)
		}
		return in
	}
	if len(sorted) > 0 && r.perName[name] >= r.labelCap {
		// Over the cap: coalesce into the overflow instrument for this
		// name's label-key set, registering it if this is the first spill.
		for i := range sorted {
			sorted[i].Value = OverflowLabelValue
		}
		key = metricKey(name, sorted)
		if in, ok := r.inst[key]; ok {
			if in.typ != typ {
				panic("obs: metric " + name + " registered as " + in.typ + ", requested as " + typ)
			}
			return in
		}
	}
	r.perName[name]++
	in := &instrument{name: name, labels: sorted, typ: typ}
	switch typ {
	case TypeCounter:
		in.ctr = &Counter{}
	case TypeGauge:
		in.gauge = &Gauge{}
	case TypeHistogram:
		in.hist = &Histogram{}
	}
	r.inst[key] = in
	return in
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, TypeCounter, labels).ctr
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.get(name, TypeGauge, labels).gauge
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.get(name, TypeHistogram, labels).hist
}

// Snapshot captures every instrument's current value, sorted by name and
// labels so output is deterministic.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	insts := make([]*instrument, 0, len(r.inst))
	for _, in := range r.inst {
		insts = append(insts, in)
	}
	r.mu.Unlock()

	s := Snapshot{Metrics: make([]Metric, 0, len(insts))}
	for _, in := range insts {
		m := Metric{Name: in.name, Type: in.typ}
		if len(in.labels) > 0 {
			m.Labels = make(map[string]string, len(in.labels))
			for _, l := range in.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch in.typ {
		case TypeCounter:
			m.Value = in.ctr.Value()
		case TypeGauge:
			m.Value = in.gauge.Value()
		case TypeHistogram:
			m.Count = in.hist.Count()
			m.SumNanos = int64(in.hist.Sum())
			m.Buckets = make([]int64, NumBuckets+1)
			for i := range m.Buckets {
				m.Buckets[i] = in.hist.counts[i].Load()
			}
		}
		s.Metrics = append(s.Metrics, m)
	}
	s.sort()
	return s
}
