// Package workload generates the nine evaluation datasets of Table 1.
//
// The paper built its workloads from ≈250 000 stock quotes collected
// from Yahoo! Finance over five years (8–11 attributes per quote) and
// synthesised subscription sets with controlled proportions of
// equality predicates, 2× / 4× attribute counts (by merging quotes),
// and uniform or Zipf (s = 1) value distributions. The crawl itself is
// unavailable, so this package generates a synthetic quote corpus with
// the same shape — per-symbol price levels spanning cents to hundreds
// of dollars, daily random walks over five years — and derives the
// subscription datasets exactly as Table 1 specifies.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s. Unlike
// math/rand's Zipf it supports s = 1 exactly, the exponent the paper
// uses, via an explicit CDF and binary search.
type Zipf struct {
	cdf []float64
	rng *rand.Rand
}

// NewZipf builds a sampler over n ranks with exponent s > 0.
func NewZipf(rng *rand.Rand, s float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf over %d ranks", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("workload: zipf exponent %f must be positive", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}, nil
}

// Draw returns the next rank.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
