// Package metrics provides the measurement primitives the experiment harness
// uses to report the paper's tables and figures: high-dynamic-range latency
// histograms with exact-rank percentiles, time-binned series (packet loss per
// 10 ms bucket, bandwidth per 10 µs bucket), and categorized byte meters for
// CXL link accounting.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram records time.Duration samples with bounded relative error, in the
// style of HDR histograms: values are bucketed logarithmically by
// power-of-two magnitude with a fixed number of linear sub-buckets per
// magnitude, giving a worst-case relative error of 1/subBuckets.
//
// The zero value is ready to use and records any non-negative int64
// nanosecond value (up to ~292 years) with <0.8 % relative error. Counters
// are allocated up to the highest bucket recorded — none while empty, at
// most 3 712 (29 KiB) — so an idle channel's histogram costs nothing.
type Histogram struct {
	counts []int64 // grown to the highest bucket recorded; missing buckets are 0
	total  int64
	sum    int64 // nanoseconds, for Mean
	min    int64
	max    int64
}

const (
	subBucketBits = 7 // 128 sub-buckets per power of two: <=0.79% error
	subBuckets    = 1 << subBucketBits
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	// Magnitude: position of the highest bit above the sub-bucket field.
	mag := 0
	if v >= subBuckets {
		mag = 64 - subBucketBits - bits.LeadingZeros64(uint64(v))
	}
	sub := int(v >> uint(mag)) // in [subBuckets/2, subBuckets) for mag>0
	if mag > 0 {
		sub -= subBuckets / 2
		return mag*subBuckets/2 + subBuckets/2 + sub
	}
	return sub
}

// bucketValue returns the midpoint of bucket i, the value percentiles
// report.
func bucketValue(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	i -= subBuckets
	mag := i/(subBuckets/2) + 1
	sub := i%(subBuckets/2) + subBuckets/2
	lo := int64(sub) << uint(mag)
	hi := lo + (int64(1)<<uint(mag) - 1)
	return lo + (hi-lo)/2 // (lo+hi)/2 overflows in the top magnitude
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		h.grow(idx + 1)
	}
	h.counts[idx]++
	h.total++
	h.sum += v
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// grow extends counts to n zeroed buckets.
func (h *Histogram) grow(n int) {
	h.counts = append(h.counts, make([]int64, n-len(h.counts))...)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded sample (0 if empty).
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Mean returns the arithmetic mean of recorded samples (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

// Percentile returns the value at quantile p in [0,100], using the
// nearest-rank definition over bucket midpoints. Percentile(50) is the
// median; Percentile(100) returns the exact maximum.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if p >= 100 {
		return time.Duration(h.max)
	}
	if p < 0 {
		p = 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Reset clears all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Summary returns a one-line human-readable digest.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.total, h.Percentile(50), h.Percentile(90), h.Percentile(99),
		h.Percentile(99.9), h.Max())
}

// ExactPercentile computes a nearest-rank percentile over a raw sample slice.
// Used by tests to validate Histogram error bounds and by small experiments
// where exactness matters more than memory.
func ExactPercentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p >= 100 {
		return s[len(s)-1]
	}
	if p < 0 {
		p = 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
