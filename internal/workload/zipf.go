package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 1..N with probability proportional to rank^-s.
//
// The paper (§5.1, footnote 5) replaces TPC-W's uniform book popularity
// with the Zipf fit Brynjolfsson et al. measured for amazon.com:
// log Q = 10.526 - 0.871 log R, i.e. an exponent of 0.871. The standard
// library's rand.Zipf requires s > 1, so this implementation inverts an
// explicit CDF and supports any s > 0.
type Zipf struct {
	cdf []float64
}

// BookPopularityExponent is the Brynjolfsson et al. sales-rank exponent
// the paper uses for the bookstore benchmark.
const BookPopularityExponent = 0.871

// NewZipf builds a sampler over ranks 1..n with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws a rank in [1, N]; rank 1 is the most popular.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}
