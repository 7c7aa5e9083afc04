package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between closest ranks; 0 for an empty slice. vs is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a share of nothing is reported as 0, never
// NaN: the output must stay valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so -compare
// computes the same spread the acceptance rule is stated in.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// histQuantile estimates the p-quantile, in seconds, of a bucketed
// histogram (counts per bucket, bounds = bucket upper edges, last bucket
// unbounded, sum = total of the observations) by linear interpolation
// inside the bucket. The lowest bucket is a millisecond wide and an
// uncontended wait is microseconds, so there the observations are taken to
// spread over twice their mean — what the sum says it is once the other
// buckets' midpoints are taken off — not over the whole bucket.
func histQuantile(bounds []float64, counts []int64, sum, p float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo
			}
			hi := bounds[i]
			if i == 0 {
				for j := 1; j < len(counts); j++ {
					mid := bounds[j-1]
					if j < len(bounds) {
						mid = (bounds[j-1] + bounds[j]) / 2
					}
					sum -= float64(counts[j]) * mid
				}
				hi = min(hi, max(0, 2*sum/float64(c)))
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// pairedDiff is the total of a[i]-b[i] with the largest and smallest tenth
// of the differences replaced by the trimmed mean: a layer's self time is a
// small difference of two large times, and one collection pause in either
// would otherwise decide its sign.
func pairedDiff(a, b []float64) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = a[i] - b[i]
	}
	sort.Float64s(d)
	cut := n / 10
	kept := d[cut : n-cut]
	return sum(kept) / float64(len(kept)) * float64(n)
}
