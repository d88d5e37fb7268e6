package obs

import (
	"fmt"
	"testing"
	"time"
)

// TestRegistryCardinalityCap is the regression test for the bounded
// metric registry: a storm of forged template IDs (label values come
// from sealed traffic, so an adversary controls them) must not grow the
// registry past the cap — the excess coalesces into one overflow
// instrument per name, and nothing is lost from the totals.
func TestRegistryCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCap(8)
	for i := 0; i < 100; i++ {
		r.Counter("dssp_cache_hits", L(LTemplate, fmt.Sprintf("forged%03d", i))).Inc()
	}

	s := r.Snapshot()
	var instruments int
	var overflow *Metric
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != "dssp_cache_hits" {
			continue
		}
		instruments++
		if m.Labels[LTemplate] == OverflowLabelValue {
			overflow = m
		}
	}
	if instruments != 9 { // cap distinct label sets + 1 overflow
		t.Errorf("registry holds %d instruments for the stormed name, want 9", instruments)
	}
	if overflow == nil {
		t.Fatal("no overflow instrument registered")
	}
	if overflow.Value != 92 {
		t.Errorf("overflow swallowed %d increments, want 92 (100 - 8 under-cap)", overflow.Value)
	}

	// Label sets registered before the cap keep their own instrument.
	if got := r.Counter("dssp_cache_hits", L(LTemplate, "forged000")).Value(); got != 1 {
		t.Errorf("pre-cap instrument lost its count: %d", got)
	}

	// Other metric names are unaffected by this name's spill, and
	// unlabeled instruments never coalesce.
	r.Counter("dssp_cache_misses", L(LTemplate, "fresh")).Inc()
	if got := r.Counter("dssp_cache_misses", L(LTemplate, "fresh")).Value(); got != 1 {
		t.Errorf("independent name coalesced: %d", got)
	}
	// (MCacheGhostReadmits is unlabeled for that reason: a per-template
	// series would hand the storm another name to spill.)
	r.Counter(MCacheGhostReadmits).Inc()
	if got := r.Counter(MCacheGhostReadmits).Value(); got != 1 {
		t.Errorf("unlabeled counter coalesced: %d", got)
	}
}

// TestRegistryCardinalityCapHistograms checks the cap on histograms: the
// overflow instrument keeps observing, so a storm stays measurable.
func TestRegistryCardinalityCapHistograms(t *testing.T) {
	r := NewRegistry()
	r.SetLabelCap(2)
	for i := 0; i < 10; i++ {
		r.Histogram("dssp_stage_seconds", L(LTemplate, fmt.Sprintf("t%d", i))).
			Observe(time.Millisecond)
	}
	h := r.Histogram("dssp_stage_seconds", L(LTemplate, OverflowLabelValue))
	if h.Count() != 8 {
		t.Errorf("overflow histogram saw %d observations, want 8", h.Count())
	}
}
