package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(42 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		got := h.Percentile(p)
		if got < 41*time.Microsecond || got > 43*time.Microsecond {
			t.Fatalf("p%v = %v, want ~42µs", p, got)
		}
	}
	if h.Min() != 42*time.Microsecond || h.Max() != 42*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBuckets (128 ns) are recorded exactly.
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i))
	}
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50ns", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v, want 100ns", got)
	}
	if got := h.Mean(); got != time.Duration(50) {
		t.Fatalf("mean = %v, want 50ns (sum 5050/100 = 50.5 truncated)", got)
	}
}

func TestHistogramRelativeErrorBound(t *testing.T) {
	// Against an exact computation on random samples, every percentile must
	// be within the documented 1/128 relative error.
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [100ns, 100ms].
		exp := rng.Float64() * 6
		v := time.Duration(100 * pow10(exp))
		h.Record(v)
		samples = append(samples, v)
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 99.99} {
		exact := ExactPercentile(samples, p)
		got := h.Percentile(p)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 1.0/128+1e-9 {
			t.Errorf("p%v: histogram %v vs exact %v (rel err %.4f)", p, got, exact, relErr)
		}
	}
}

func pow10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	// linear blend for the fraction: adequate for sample generation
	return r * (1 + 9*x/10)
}

func TestHistogramMerge(t *testing.T) {
	var a, b, c Histogram
	for i := 1; i <= 50; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		c.Record(time.Duration(i) * time.Microsecond)
	}
	for i := 51; i <= 100; i++ {
		b.Record(time.Duration(i) * time.Microsecond)
		c.Record(time.Duration(i) * time.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != c.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), c.Count())
	}
	for _, p := range []float64{10, 50, 90, 100} {
		if a.Percentile(p) != c.Percentile(p) {
			t.Fatalf("p%v: merged %v vs direct %v", p, a.Percentile(p), c.Percentile(p))
		}
	}
	if a.Min() != c.Min() || a.Max() != c.Max() {
		t.Fatalf("merged min/max mismatch")
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	var a, b Histogram
	b.Record(5 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 1 || a.Min() != 5*time.Millisecond {
		t.Fatalf("merge into empty: count=%d min=%v", a.Count(), a.Min())
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentileWithinMinMax(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		for _, p := range []float64{0, 1, 50, 99, 100} {
			v := h.Percentile(p)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample: min=%v max=%v n=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestExactPercentile(t *testing.T) {
	s := []time.Duration{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {20, 1}, {40, 2}, {50, 3}, {60, 3}, {100, 5}}
	for _, c := range cases {
		if got := ExactPercentile(s, c.p); got != c.want {
			t.Errorf("ExactPercentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Errorf("ExactPercentile sorted its input: %v", s)
	}
	if ExactPercentile([]time.Duration(nil), 50) != 0 {
		t.Error("empty slice should yield 0")
	}
	if got := ExactPercentile([]float64{0.5, 2.5, 1.5}, 95); got != 2.5 {
		t.Errorf("float ExactPercentile(95) = %v, want 2.5", got)
	}
}

func TestSeriesAccumulation(t *testing.T) {
	s := NewSeries(10 * time.Microsecond)
	s.Add(0, 1)
	s.Add(9*time.Microsecond, 2)  // same bin 0
	s.Add(10*time.Microsecond, 5) // bin 1
	s.Add(35*time.Microsecond, 7) // bin 3
	if s.At(0) != 3 || s.At(1) != 5 || s.At(2) != 0 || s.At(3) != 7 {
		t.Fatalf("bins = %v %v %v %v", s.At(0), s.At(1), s.At(2), s.At(3))
	}
	if s.Total() != 15 {
		t.Fatalf("total = %v", s.Total())
	}
	i, v := s.MaxBin()
	if i != 3 || v != 7 {
		t.Fatalf("max bin = %d,%v", i, v)
	}
}

func TestSeriesPercentileCountsEmptyBins(t *testing.T) {
	s := NewSeries(time.Millisecond)
	s.Add(0, 100)
	// Observation window of 100 bins: 99 are zero, so p50 must be 0 and
	// p99.5 must be 100.
	if got := s.PercentileOverBins(50, 100); got != 0 {
		t.Fatalf("p50 = %v, want 0", got)
	}
	if got := s.PercentileOverBins(99.5, 100); got != 100 {
		t.Fatalf("p99.5 = %v, want 100", got)
	}
}

func TestSeriesNegativeTimeClamped(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(-time.Hour, 5)
	if s.At(0) != 5 {
		t.Fatal("negative time should land in bin 0")
	}
}

func TestMeterCategories(t *testing.T) {
	m := NewMeter()
	m.Add("payload", 1000)
	m.Add("message", 200)
	m.Add("payload", 500)
	if m.Total() != 1700 {
		t.Fatalf("total = %d", m.Total())
	}
	if m.Category("payload") != 1500 || m.Category("message") != 200 {
		t.Fatalf("categories: %v", m.Snapshot())
	}
	cats := meterCategories(m)
	if len(cats) != 2 || cats[0] != "message" || cats[1] != "payload" {
		t.Fatalf("categories = %v", cats)
	}
}

// meterCategories lists a meter's categories through its in-order iterator.
func meterCategories(m *Meter) []string {
	out := make([]string, m.Len())
	for i := range out {
		out[i], _ = m.CategoryAt(i)
	}
	return out
}

func TestMeterRate(t *testing.T) {
	m := NewMeter()
	m.Add("x", 2_000_000_000)
	if r := m.Rate(2 * time.Second); r != 1e9 {
		t.Fatalf("rate = %v, want 1e9", r)
	}
	if GBps(m.Rate(2*time.Second)) != 1.0 {
		t.Fatalf("GBps = %v, want 1", GBps(m.Rate(2*time.Second)))
	}
	if m.Rate(0) != 0 {
		t.Fatal("zero elapsed must yield zero rate")
	}
}

func TestMeterSnapshotDiff(t *testing.T) {
	m := NewMeter()
	m.Add("a", 10)
	snap := m.Snapshot()
	m.Add("a", 5)
	m.Add("b", 7)
	d := m.Diff(snap)
	if d["a"] != 5 || d["b"] != 7 || len(d) != 2 {
		t.Fatalf("diff = %v", d)
	}
}

func TestMeterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative add")
		}
	}()
	NewMeter().Add("x", -1)
}

func TestHistogramSummaryAndReset(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Summary()
	if s == "" || h.Count() != 10 {
		t.Fatalf("summary %q count %d", s, h.Count())
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSeriesStringAndBin(t *testing.T) {
	s := NewSeries(time.Millisecond)
	s.Add(0, 5)
	if s.Bin() != time.Millisecond || s.String() == "" {
		t.Fatal("accessors broken")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSeriesPanicsOnBadBin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeries(0)
}

func TestMeterCategoryRateAndString(t *testing.T) {
	m := NewMeter()
	m.Add("x", 1e9)
	if m.CategoryRate("x", time.Second) != 1e9 {
		t.Fatal("category rate wrong")
	}
	if m.CategoryRate("x", 0) != 0 {
		t.Fatal("zero-elapsed rate must be 0")
	}
	if m.String() == "" {
		t.Fatal("string empty")
	}
	m.Reset()
	if m.Total() != 0 {
		t.Fatal("reset failed")
	}
}
