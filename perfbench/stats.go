package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, so that each value weighs
// equally whatever its magnitude. It returns 0 for an empty slice or when
// any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder lists the percentiles the tail rule considers, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a latency percentile chosen by the tail rule.
type tail struct {
	// Pct is the percentile reported, e.g. 99.
	Pct float64
	// Value is the sample at that percentile (nearest rank).
	Value float64
	// Beyond is how many samples lie above it.
	Beyond int
	// N is the sample count.
	N int
}

func (t tail) String() string {
	return fmt.Sprintf("p%g (n=%d, %d beyond)", t.Pct, t.N, t.Beyond)
}

// tailPercentile applies the tail rule: it reports the highest percentile on
// tailLadder that has at least minBeyond samples above it, using nearest
// rank. ok is false when no percentile qualifies (fewer than 2*minBeyond
// samples).
func tailPercentile(xs []float64) (t tail, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		// 1-based nearest rank; the epsilon keeps 0.999*20000 from rounding
		// up past 19980.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return tail{Pct: p, Value: s[rank-1], Beyond: n - rank, N: n}, true
	}
	return tail{N: n}, false
}
