package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// refHistogram is the fixed-array histogram the grown-slice one replaced:
// every counter a value can reach — and 3 584 it cannot — allocated up
// front. It is kept, with the midpoint overflow fixed, as the reference the
// sparse histogram must agree with on every accessor.
type refHistogram struct {
	counts [refCounters]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

const refCounters = (64 - 7) * 128 // magnitudes × sub-buckets

func refBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	mag := 0
	if v >= 128 {
		mag = 64 - 7 - bits.LeadingZeros64(uint64(v))
	}
	return mag*64 + int(v>>uint(mag)) // the shifted value is in [64, 128) for mag > 0
}

func refBucketValue(i int) int64 {
	if i < 128 {
		return int64(i)
	}
	i -= 128
	mag := i/64 + 1
	lo := int64(i%64+64) << uint(mag)
	hi := lo + (int64(1)<<uint(mag) - 1)
	return lo + (hi-lo)/2
}

func (h *refHistogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := refBucketIndex(v)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
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

func (h *refHistogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

func (h *refHistogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

func (h *refHistogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

func (h *refHistogram) Percentile(p float64) time.Duration {
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
			v := refBucketValue(i)
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

func (h *refHistogram) Merge(other *refHistogram) {
	if other.total == 0 {
		return
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

func (h *refHistogram) Summary() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.total, h.Percentile(50), h.Percentile(90), h.Percentile(99),
		h.Percentile(99.9), h.Max())
}

// refSample draws from every range a histogram must handle: zero,
// negatives (clamped), exact small values, log-uniform values up to
// 2⁶³−1, the top of the range, and bursts of one bucket.
func refSample(rng *rand.Rand, burst *int64) time.Duration {
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return -time.Duration(rng.Int63())
	case 2:
		return time.Duration(1 + rng.Intn(200))
	case 3:
		shift := uint(rng.Intn(63))
		return time.Duration(int64(1)<<shift | rng.Int63n(int64(1)<<shift))
	case 4:
		return time.Duration([]int64{math.MaxInt64, 1 << 62, 1<<62 + 5, 1<<62 - 1, 1 << 61}[rng.Intn(5)])
	default:
		if *burst == 0 || rng.Intn(8) == 0 {
			*burst = rng.Int63n(int64(1) << uint(rng.Intn(63)))
		}
		return time.Duration(*burst)
	}
}

func diffHistograms(h *Histogram, r *refHistogram) string {
	if h.Count() != r.total || h.Min() != r.Min() || h.Max() != r.Max() || h.Mean() != r.Mean() {
		return fmt.Sprintf("count/min/max/mean %d/%v/%v/%v, reference %d/%v/%v/%v",
			h.Count(), h.Min(), h.Max(), h.Mean(), r.total, r.Min(), r.Max(), r.Mean())
	}
	for _, p := range []float64{-1, 0, 0.1, 1, 50, 90, 99, 99.9, 100, 101} {
		if got, want := h.Percentile(p), r.Percentile(p); got != want {
			return fmt.Sprintf("p%v = %v, reference %v", p, got, want)
		}
	}
	if got, want := h.Summary(), r.Summary(); got != want {
		return fmt.Sprintf("summary %q, reference %q", got, want)
	}
	return ""
}

// TestHistogramMatchesFixedArrayReference records the same seeded samples
// into the histogram and the fixed-array reference — with merges between
// histograms grown to different lengths, and resets — and requires every
// accessor of the histogram a step changed to agree after it.
func TestHistogramMatchesFixedArrayReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var hs [3]Histogram
		var rs [3]refHistogram
		var burst int64
		for step := 0; step < 600; step++ {
			i := rng.Intn(len(hs))
			op := "record"
			switch k := rng.Intn(40); {
			case k == 0:
				op = "reset"
				hs[i].Reset()
				rs[i] = refHistogram{}
			case k < 4:
				j := rng.Intn(len(hs))
				op = fmt.Sprintf("merge %d", j)
				hs[i].Merge(&hs[j])
				rs[i].Merge(&rs[j])
			default:
				// Histograms 1 and 2 stay below 2²⁰ and 2⁴⁰ ns most of the
				// time, so merges mix short and long counter slices.
				d := refSample(rng, &burst)
				if lim := []time.Duration{math.MaxInt64, 1 << 20, 1 << 40}[i]; d > lim && rng.Intn(10) != 0 {
					d %= lim
				}
				op = fmt.Sprintf("record %d", d)
				hs[i].Record(d)
				rs[i].Record(d)
			}
			if msg := diffHistograms(&hs[i], &rs[i]); msg != "" {
				t.Fatalf("seed %d step %d (%s on %d): %s", seed, step, op, i, msg)
			}
		}
	}
}

// A sample at or above 2⁶² ns lands in the top magnitude, whose bucket
// midpoint overflowed int64 when computed as (lo+hi)/2; the negative
// midpoint was then clamped up to the minimum sample.
func TestHistogramPercentileHugeSamples(t *testing.T) {
	var h Histogram
	h.Record(time.Microsecond)
	h.Record(1 << 62)
	h.Record(1<<62 + 5)
	for _, p := range []float64{50, 99} {
		if got := h.Percentile(p); got != 1<<62+5 {
			t.Errorf("p%v = %d, want %d", p, got, int64(1<<62+5))
		}
	}
	h.Record(math.MaxInt64)
	if got, want := h.Percentile(99), time.Duration(math.MaxInt64); got < want-want/128 {
		t.Errorf("p99 = %d, want within 1/128 of %d", got, want)
	}
}
