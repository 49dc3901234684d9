package trace

import (
	"testing"
	"time"
)

func TestBurstyTraceCalibration(t *testing.T) {
	cfg := DefaultBursty()
	tr := GenBursty(cfg)
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	// Events must be time-ordered and inside the span.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].At < tr.Events[i-1].At {
			t.Fatal("trace not time-ordered")
		}
	}
	if last := tr.Events[len(tr.Events)-1].At; last > cfg.Span {
		t.Fatalf("event at %v beyond span %v", last, cfg.Span)
	}
	// The defining property (§2.2): P99.99 near the peak target, P99 tiny.
	p9999 := tr.UtilizationAt(99.99, 10*time.Microsecond)
	p99 := tr.UtilizationAt(99, 10*time.Microsecond)
	if p9999 < cfg.PeakUtil*0.6 || p9999 > cfg.PeakUtil*1.4 {
		t.Errorf("P99.99 util = %.3f, want ≈ %.2f", p9999, cfg.PeakUtil)
	}
	if p99 > 0.05 {
		t.Errorf("P99 util = %.3f, want < 0.05 (bursty, not steady)", p99)
	}
	mean := tr.MeanUtil()
	if mean < cfg.MeanUtil/3 || mean > cfg.MeanUtil*3 {
		t.Errorf("mean util = %.4f, want ≈ %.4f", mean, cfg.MeanUtil)
	}
}

func TestBurstyDeterminism(t *testing.T) {
	a := GenBursty(DefaultBursty())
	b := GenBursty(DefaultBursty())
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic generator")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("event divergence")
		}
	}
}

func TestRackAMatchesTable2(t *testing.T) {
	// Table 2 rack A inbound P99.99 per host: 39/30/0/23 %; aggregated
	// (over 4 hosts' combined capacity) ≈ 10 %.
	traces := RackA(time.Second)
	targets := []float64{0.39, 0.30, 0.0, 0.23}
	bucket := 10 * time.Microsecond
	for i, tr := range traces {
		got := tr.UtilizationAt(99.99, bucket)
		if targets[i] == 0 {
			if got > 0.02 {
				t.Errorf("host %d: P99.99 = %.3f, want ~0", i+1, got)
			}
			continue
		}
		if got < targets[i]*0.6 || got > targets[i]*1.4 {
			t.Errorf("host %d: P99.99 = %.3f, want ≈ %.2f", i+1, got, targets[i])
		}
	}
	agg := Merge(4*100e9, traces...)
	aggUtil := agg.UtilizationAt(99.99, bucket)
	if aggUtil < 0.05 || aggUtil > 0.20 {
		t.Errorf("aggregated P99.99 = %.3f, want ≈ 0.10 (Table 2)", aggUtil)
	}
	// The multiplexing headline: aggregate P99.99 well below any busy
	// host's own P99.99 — bursts rarely overlap.
	if aggUtil >= 0.39 {
		t.Error("aggregate utilization should be far below the busiest host's")
	}
}

func TestRackBMatchesTable2(t *testing.T) {
	traces := RackB(time.Second)
	targets := []float64{0.39, 0.75, 0.52, 0.79}
	bucket := 10 * time.Microsecond
	for i, tr := range traces {
		got := tr.UtilizationAt(99.99, bucket)
		if got < targets[i]*0.6 || got > targets[i]*1.4 {
			t.Errorf("host %d: P99.99 = %.3f, want ≈ %.2f", i+1, got, targets[i])
		}
	}
	agg := Merge(4*50e9, traces...)
	if got := agg.UtilizationAt(99.99, bucket); got < 0.10 || got > 0.35 {
		t.Errorf("aggregated P99.99 = %.3f, want ≈ 0.20", got)
	}
}

func TestBandwidthSeriesConsistency(t *testing.T) {
	tr := GenBursty(DefaultBursty())
	s := tr.BandwidthSeries(10 * time.Microsecond)
	if int64(s.Total()) != tr.TotalBytes() {
		t.Fatalf("series total %v != trace bytes %d", s.Total(), tr.TotalBytes())
	}
}

func TestMergeOrders(t *testing.T) {
	a := GenBursty(BurstyConfig{Span: 10 * time.Millisecond, LinkBps: 100e9, PeakUtil: 0.3, MeanUtil: 0.01, BurstMean: 100 * time.Microsecond, Seed: 1})
	b := GenBursty(BurstyConfig{Span: 10 * time.Millisecond, LinkBps: 100e9, PeakUtil: 0.3, MeanUtil: 0.01, BurstMean: 100 * time.Microsecond, Seed: 2})
	m := Merge(100e9, a, b)
	if len(m.Events) != len(a.Events)+len(b.Events) {
		t.Fatal("merge lost events")
	}
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].At < m.Events[i-1].At {
			t.Fatal("merged trace not ordered")
		}
	}
}

func TestGenDeterministicAndJittered(t *testing.T) {
	g1 := NewGen()
	g2 := NewGen()
	sawJitter := false
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatal("nondeterministic instance stream")
		}
		if a.CPU != 0 && a.CPU != 2 && a.CPU != 8 && a.CPU != 16 {
			sawJitter = true
		}
		if a.CPU < 0 || a.Mem < 0 || a.NIC < 0 || a.SSD < 0 {
			t.Fatal("negative resource draw")
		}
	}
	if !sawJitter {
		t.Fatal("jitter never applied")
	}
}
