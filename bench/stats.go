package main

import (
	"math"
	"sort"
)

// quantile interpolates the q-quantile of sorted; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// slowestMean is the mean of the slowest hundredth of sorted (at
// least one value): the tail as a figure that does not jump when the
// share of delayed ops crosses a percentile.
func slowestMean(sorted []float64) float64 {
	n := len(sorted) / 100
	if n < 1 {
		n = 1
	}
	return mean(sorted[len(sorted)-n:])
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles are the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default exclusive method),
// so -repeat judges spreads the way the driver does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
