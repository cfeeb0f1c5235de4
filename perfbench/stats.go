package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// highestPercentile returns the highest tail percentile that n samples
// support — at least minBeyond samples strictly above its rank — or 50
// (the median) when no tail percentile qualifies.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// beyond is the number of the n samples ranked above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1e-9 absorbs float error, e.g. 99.9% of 10000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty);
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle value of xs, averaging the two middle values of an
// even-sized sample (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// per divides, yielding 0 for an empty denominator (a layer the workload
// does not exercise).
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
