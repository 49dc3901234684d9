package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"oasis/internal/metrics"
)

func TestRegistryNameCollisionRejected(t *testing.T) {
	r := New()
	r.Counter("nic1/tx_packets", func() int64 { return 0 })
	// Collisions are rejected across kinds too: the namespace is shared.
	for _, c := range []struct {
		what     string
		register func()
	}{
		{"duplicate counter", func() { r.Counter("nic1/tx_packets", func() int64 { return 0 }) }},
		{"duplicate gauge", func() { r.Gauge("nic1/tx_packets", func() float64 { return 0 }) }},
		{"duplicate histogram", func() { r.Histogram("nic1/tx_packets", &metrics.Histogram{}) }},
		{"duplicate meter", func() { r.Meter("nic1/tx_packets", metrics.NewMeter()) }},
		{"empty name", func() { r.Counter("", func() int64 { return 0 }) }},
		{"nil histogram", func() { r.Histogram("nic1/lat", nil) }},
		{"nil meter", func() { r.Meter("nic1/bytes", nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registered without a panic", c.what)
				}
			}()
			c.register()
		}()
	}
	if n := len(r.Snapshot(0).Points); n != 1 {
		t.Fatalf("%d points after the refused registrations, want the first counter only", n)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every digest field is zero.
	var h metrics.Histogram
	r := New()
	r.Histogram("lat", &h)
	sum := r.Snapshot(0).Histogram("lat")
	if sum == nil {
		t.Fatal("histogram point missing")
	}
	if sum.Count != 0 || sum.P50 != 0 || sum.P999 != 0 || sum.Min != 0 || sum.Max != 0 {
		t.Fatalf("empty histogram summary not zero: %+v", sum)
	}

	// Single sample: every quantile collapses to it.
	h.Record(1234 * time.Nanosecond)
	sum = r.Snapshot(0).Histogram("lat")
	if sum.Count != 1 {
		t.Fatalf("count = %d, want 1", sum.Count)
	}
	for _, q := range []time.Duration{sum.P50, sum.P90, sum.P99, sum.P999, sum.Min, sum.Max, sum.Mean} {
		if q != 1234*time.Nanosecond {
			t.Fatalf("single-sample digest not collapsed: %+v", sum)
		}
	}

	// Bucket boundaries: values below subBuckets (128 ns) are recorded
	// exactly; the first bucketed magnitude keeps <0.8% relative error.
	var hb metrics.Histogram
	for _, v := range []time.Duration{0, 1, 127, 128, 129, 255, 256} {
		hb.Record(v)
	}
	if got := hb.Percentile(0); got != 0 {
		t.Fatalf("P0 = %v, want 0 (clamped to min)", got)
	}
	if got := hb.Percentile(100); got != 256 {
		t.Fatalf("P100 = %v, want exact max 256", got)
	}
	// Median of 7 samples is the 4th (128 ns): an exact boundary value.
	if got := hb.Percentile(50); got != 128 {
		t.Fatalf("P50 = %v, want 128ns", got)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := New()
		m := metrics.NewMeter()
		m.Add("payload", 100)
		m.Add("message", 7)
		r.Meter("cxl/port/host0/rd_bytes", m)
		r.Counter("z/last", func() int64 { return 9 })
		r.Counter("a/first", func() int64 { return 1 })
		r.Gauge("m/mid", func() float64 { return 2.5 })
		h := &metrics.Histogram{}
		r.Histogram("m/lat", h)
		h.Record(5 * time.Microsecond)
		r.Events.Emit(time.Millisecond, "alloc", "placement ip=10.0.0.1 nic=1")
		return r.Snapshot(42 * time.Millisecond)
	}
	s := build()
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Label >= b.Label) {
			t.Fatalf("points not strictly sorted: %q{%s} before %q{%s}", a.Name, a.Label, b.Name, b.Label)
		}
	}
	if s.Category("cxl/port/host0/rd_bytes", "payload") != 100 {
		t.Fatal("meter category point missing")
	}
	if !bytes.Equal(build().JSON(), s.JSON()) {
		t.Fatal("identical registries produced different snapshot JSON")
	}
	if s.Value("a/first") != 1 || s.Value("m/mid") != 2.5 {
		t.Fatalf("point lookup broken: %s", s.JSON())
	}
	if len(s.Events) != 1 || s.Events[0].Src != "alloc" {
		t.Fatalf("events not carried: %+v", s.Events)
	}
}

func TestSnapshotEncodings(t *testing.T) {
	r := New()
	r.Counter("host0/fe/tx_forwarded", func() int64 { return 12 })
	m := metrics.NewMeter()
	m.Add("payload", 64)
	r.Meter("cxl/port/host0/wr_bytes", m)
	h := &metrics.Histogram{}
	r.Histogram("host0/fe/chan/nic1/rx_lat", h)
	h.Record(2 * time.Microsecond)
	s := r.Snapshot(time.Second)

	str := s.String()
	for _, want := range []string{"pod after 1s", "host0/fe/tx_forwarded 12",
		"cxl/port/host0/wr_bytes{payload} 64", "rx_lat count=1"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() missing %q:\n%s", want, str)
		}
	}
	prom := s.PromText()
	for _, want := range []string{"oasis_host0_fe_tx_forwarded 12",
		`oasis_cxl_port_host0_wr_bytes{category="payload"} 64`,
		`oasis_host0_fe_chan_nic1_rx_lat{quantile="0.5"}`,
		"oasis_host0_fe_chan_nic1_rx_lat_count 1"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("PromText() missing %q:\n%s", want, prom)
		}
	}
}

func TestTraceRingBounded(t *testing.T) {
	tr := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		tr.Emit(time.Duration(i), "src", "msg")
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].At != 6 || evs[3].At != 9 {
		t.Fatalf("ring did not keep the newest tail: %+v", evs)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	// A nil ring swallows emits so components can trace unconditionally.
	var nilRing *TraceRing
	nilRing.Emit(0, "x", "y")
	if nilRing.Events() != nil || nilRing.Total() != 0 {
		t.Fatal("nil ring not inert")
	}
}
