package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Series accumulates a value per fixed-width time bin — bytes received per
// 10 µs bucket (Fig. 3, Fig. 12 utilization), packets lost per 10 ms bucket
// (Fig. 13), or P99-latency-per-window inputs (Fig. 14).
type Series struct {
	bin  time.Duration
	bins []float64
}

// NewSeries returns a Series with the given bin width.
func NewSeries(bin time.Duration) *Series {
	if bin <= 0 {
		panic("metrics: series bin width must be positive")
	}
	return &Series{bin: bin}
}

// Add accumulates v into the bin containing time t.
func (s *Series) Add(t time.Duration, v float64) {
	if t < 0 {
		t = 0
	}
	idx := int(t / s.bin)
	for len(s.bins) <= idx {
		s.bins = append(s.bins, 0)
	}
	s.bins[idx] += v
}

// Bin returns the width of each bin.
func (s *Series) Bin() time.Duration { return s.bin }

// Len returns the number of bins (up to the last one written).
func (s *Series) Len() int { return len(s.bins) }

// At returns the accumulated value of bin i (0 for bins never written).
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.bins) {
		return 0
	}
	return s.bins[i]
}

// Total returns the sum over all bins.
func (s *Series) Total() float64 {
	var t float64
	for _, v := range s.bins {
		t += v
	}
	return t
}

// MaxBin returns the index and value of the largest bin (-1 if empty).
func (s *Series) MaxBin() (int, float64) {
	idx, best := -1, 0.0
	for i, v := range s.bins {
		if idx == -1 || v > best {
			idx, best = i, v
		}
	}
	return idx, best
}

// PercentileOverBins returns the p-th percentile of per-bin values over bins
// [0, n). Bins never written count as zero, which is what utilization-at-
// P99.99 over a fixed observation window requires: idle intervals are real.
func (s *Series) PercentileOverBins(p float64, n int) float64 {
	if n <= 0 {
		n = len(s.bins)
	}
	vals := make([]float64, n)
	for i := 0; i < n && i < len(s.bins); i++ {
		vals[i] = s.bins[i]
	}
	return ExactPercentile(vals, p)
}

// String renders the series compactly for debugging.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series(bin=%v, n=%d, total=%g)", s.bin, len(s.bins), s.Total())
	return b.String()
}
