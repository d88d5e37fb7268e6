package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(100, BookPopularityExponent)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		r := z.Sample(rng)
		if r < 1 || r > 100 {
			t.Fatalf("rank %d out of range", r)
		}
	}
	if len(z.cdf) != 100 {
		t.Errorf("ranks = %d", len(z.cdf))
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, BookPopularityExponent)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 1001)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	if counts[1] <= counts[10] || counts[10] <= counts[100] {
		t.Errorf("not monotone-ish: c1=%d c10=%d c100=%d", counts[1], counts[10], counts[100])
	}
	// Under exponent s, P(1)/P(10) = 10^s ≈ 7.4. Allow generous slack.
	ratio := float64(counts[1]) / float64(counts[10])
	want := math.Pow(10, BookPopularityExponent)
	if ratio < want*0.6 || ratio > want*1.6 {
		t.Errorf("head ratio %.2f, want ≈ %.2f", ratio, want)
	}
}

func TestZipfUniformWhenZero(t *testing.T) {
	z := NewZipf(10, 0)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 11)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(rng)]++
	}
	for r := 1; r <= 10; r++ {
		if counts[r] < 8000 || counts[r] > 12000 {
			t.Errorf("rank %d count %d not ~uniform", r, counts[r])
		}
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(0, 1)
	rng := rand.New(rand.NewSource(4))
	if got := z.Sample(rng); got != 1 {
		t.Errorf("degenerate sample = %d", got)
	}
}

func TestDefaultModels(t *testing.T) {
	n := DefaultNetwork()
	if n.HomeLatency.Milliseconds() != 100 || n.ClientLatency.Milliseconds() != 5 {
		t.Errorf("latencies: %+v", n)
	}
	if n.HomeBitsPS != 2e6 || n.ClientBitsPS != 20e6 {
		t.Errorf("bandwidths: %+v", n)
	}
	c := DefaultCosts()
	if c.HomeCapacity < 1 || c.DSSPCapacity < c.HomeCapacity {
		t.Errorf("capacities: %+v", c)
	}
	if c.HomeQueryBase <= c.DSSPOpCost {
		t.Error("home query must cost more than a DSSP lookup")
	}
}
