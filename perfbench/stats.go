package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 read off fewer than ten slower samples is one or two
// outliers, not a percentile.
const minTail = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule — the smallest sample with at least p% of the samples
// at or below it — and how many samples lie strictly after that rank.
// xs must be non-empty; it is sorted in place.
func nearestRank(xs []float64, p float64) (value float64, beyond int) {
	slices.Sort(xs)
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return xs[rank-1], n - rank
}

// tailPercentile is nearestRank for a reported tail percentile: it fails
// when fewer than minTail samples lie beyond the rank.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	v, beyond := nearestRank(xs, p)
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, len(xs), beyond, minTail)
	}
	return v, nil
}

// median is the nearest-rank p50; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := nearestRank(xs, 50)
	return v
}

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// series collects named per-op samples (milliseconds, counts, ...).
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
