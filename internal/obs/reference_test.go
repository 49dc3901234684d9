package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"oasis/internal/metrics"
)

// The snapshot used to sample its instruments in registration order and
// sort the points afterwards, and a cluster snapshot concatenated its pods'
// snapshots and sorted again. These are those two functions, kept as the
// references the presorted snapshot and the merge must reproduce byte for
// byte.

// refSnapshot samples r the old way: instruments in no particular order (a
// map walk), meter categories from the meter's map copy, then one sort.
func refSnapshot(r *Registry, at time.Duration) Snapshot {
	s := Snapshot{At: at}
	for _, i := range r.byName {
		switch {
		case i.counter != nil:
			s.Points = append(s.Points, Point{Name: i.name, Kind: i.kind, Value: float64(i.counter())})
		case i.gauge != nil:
			s.Points = append(s.Points, Point{Name: i.name, Kind: i.kind, Value: i.gauge()})
		case i.hist != nil:
			h := i.hist
			s.Points = append(s.Points, Point{Name: i.name, Kind: KindHistogram, Hist: &HistSummary{
				Count: h.Count(),
				Min:   h.Min(),
				Mean:  h.Mean(),
				P50:   h.Percentile(50),
				P90:   h.Percentile(90),
				P99:   h.Percentile(99),
				P999:  h.Percentile(99.9),
				Max:   h.Max(),
			}})
		case i.meter != nil:
			for cat, v := range i.meter.Snapshot() {
				s.Points = append(s.Points, Point{Name: i.name, Kind: KindCounter, Label: cat, Value: float64(v)})
			}
		}
	}
	sortPoints(s.Points)
	s.Events = r.Events.Events()
	return s
}

func sortPoints(pts []Point) {
	sort.SliceStable(pts, func(a, b int) bool {
		if pts[a].Name != pts[b].Name {
			return pts[a].Name < pts[b].Name
		}
		return pts[a].Label < pts[b].Label
	})
}

// refMerge is the old cluster snapshot: concatenate, then sort the points by
// (Name, Label) and the events stably by time.
func refMerge(at time.Duration, parts ...Snapshot) Snapshot {
	s := Snapshot{At: at}
	for _, p := range parts {
		s.Points = append(s.Points, p.Points...)
		s.Events = append(s.Events, p.Events...)
	}
	sortPoints(s.Points)
	sort.SliceStable(s.Events, func(a, b int) bool { return s.Events[a].At < s.Events[b].At })
	return s
}

// randRegistry grows a registry of every instrument kind under names that
// share prefixes ("pod1/" and "pod10/", a name and its own subtree). Each
// call to grow registers a few more instruments, records into the existing
// ones, gives meters new categories and emits trace events at
// non-decreasing times.
type randRegistry struct {
	r      *Registry
	rng    *rand.Rand
	prefix string
	n      int // instruments registered
	vals   []int64
	hists  []*metrics.Histogram
	meters []*metrics.Meter
	now    time.Duration
}

var (
	refSegments   = []string{"pod1", "pod10", "pod2", "host0", "host1", "fe", "chan", "nic1", "a", "a/b", "rx_lat", "x"}
	refCategories = []string{"payload", "message", "dma", "evict", "", "Z", "payload2"}
)

func (g *randRegistry) name() string {
	name := g.prefix
	for k := 1 + g.rng.Intn(3); k > 0; k-- {
		if name != "" {
			name += "/"
		}
		name += refSegments[g.rng.Intn(len(refSegments))]
	}
	return fmt.Sprintf("%s%d", name, g.n) // unique within the registry
}

func (g *randRegistry) grow() {
	for k := g.rng.Intn(6); k > 0; k-- {
		name := g.name()
		g.n++
		switch g.rng.Intn(4) {
		case 0:
			i := len(g.vals)
			g.vals = append(g.vals, 0)
			g.r.Counter(name, func() int64 { return g.vals[i] })
		case 1:
			i := len(g.vals)
			g.vals = append(g.vals, 0)
			g.r.Gauge(name, func() float64 { return float64(g.vals[i]) / 4 })
		case 2:
			h := &metrics.Histogram{}
			g.hists = append(g.hists, h)
			g.r.Histogram(name, h)
		case 3:
			m := metrics.NewMeter()
			g.meters = append(g.meters, m)
			g.r.Meter(name, m)
		}
	}
	for i := range g.vals {
		g.vals[i] += int64(g.rng.Intn(3))
	}
	for _, h := range g.hists {
		for k := g.rng.Intn(4); k > 0; k-- {
			h.Record(time.Duration(g.rng.Intn(1_000_000)))
		}
	}
	for _, m := range g.meters {
		if g.rng.Intn(2) == 0 {
			m.Add(refCategories[g.rng.Intn(len(refCategories))], 64*int64(g.rng.Intn(4)))
		}
	}
	for k := g.rng.Intn(3); k > 0; k-- {
		g.now += time.Duration(g.rng.Intn(3)) * time.Microsecond // ties across registries
		g.r.Events.Emit(g.now, g.prefix+"src", fmt.Sprintf("event %d", k))
	}
}

// TestSnapshotMatchesSortedReference runs seeded random registries — every
// instrument kind, shared name prefixes, meters that gain categories
// between snapshots, registrations after a snapshot — and requires every
// Snapshot to encode byte for byte as the sort-based reference does. It
// then takes clusters of 1–12 such registries, each under its "pod<i>/"
// scope, and requires Sample of them all to encode as the sort of their
// snapshots' concatenation.
func TestSnapshotMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &randRegistry{r: New(), rng: rng}
		for step := 0; step < 12; step++ {
			g.grow()
			at := time.Duration(step) * time.Millisecond
			got, want := g.r.Snapshot(at), refSnapshot(g.r, at)
			if !bytes.Equal(got.JSON(), want.JSON()) || got.String() != want.String() {
				t.Fatalf("seed %d step %d: snapshot\n%s\nreference\n%s", seed, step, got, want)
			}
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pods := make([]*randRegistry, 1+rng.Intn(12))
		for i := range pods {
			pods[i] = &randRegistry{r: New(), rng: rng, prefix: fmt.Sprintf("pod%d/", i)}
		}
		for step := 0; step < 6; step++ {
			regs, parts := make([]*Registry, len(pods)), make([]Snapshot, len(pods))
			for i, g := range pods {
				g.grow()
				regs[i], parts[i] = g.r, refSnapshot(g.r, g.now)
			}
			at := time.Duration(step) * time.Millisecond
			got, want := Sample(at, regs...), refMerge(at, parts...)
			if !bytes.Equal(got.JSON(), want.JSON()) || got.String() != want.String() {
				t.Fatalf("seed %d step %d, %d pods: merge\n%s\nreference\n%s", seed, step, len(pods), got, want)
			}
		}
	}
}

// TestSnapshotAllocs pins what a snapshot allocates: the points, one block
// of histogram summaries and the trace tail — as many allocations at 10
// series as at 10 000, none of them a sort's. Sampling four registries at
// once (a cluster's pods) adds only each registry's trace tail, the list of
// them and their merge: no point is copied twice.
func TestSnapshotAllocs(t *testing.T) {
	allocs := func(series, pods int) float64 {
		regs := make([]*Registry, pods)
		for k := range regs {
			regs[k] = New()
			regs[k].Events.Emit(time.Millisecond, "alloc", "placement")
		}
		m := metrics.NewMeter()
		m.Add("payload", 64)
		m.Add("message", 64)
		for i := 0; i < series; i++ {
			r := regs[i%pods]
			name := fmt.Sprintf("pod%d/host%d/s%d", i%pods, i%7, i)
			switch i % 4 {
			case 0:
				r.Counter(name, func() int64 { return int64(i) })
			case 1:
				r.Gauge(name, func() float64 { return 0.5 })
			case 2:
				h := &metrics.Histogram{}
				h.Record(time.Duration(i) * time.Microsecond)
				r.Histogram(name, h)
			case 3:
				r.Meter(name, m)
			}
		}
		Sample(0, regs...) // sorts the registrations once
		return testing.AllocsPerRun(20, func() { Sample(time.Second, regs...) })
	}
	small, large := allocs(10, 1), allocs(10_000, 1)
	t.Logf("allocations per snapshot: %.0f at 10 series, %.0f at 10 000", small, large)
	if small != large || large > 3 {
		t.Fatalf("allocations per snapshot: %.0f at 10 series, %.0f at 10 000; want the same, at most 3", small, large)
	}
	small, large = allocs(10, 4), allocs(10_000, 4)
	t.Logf("allocations per snapshot of 4 registries: %.0f at 10 series, %.0f at 10 000", small, large)
	if small != large || large > 8 {
		t.Fatalf("allocations per snapshot of 4 registries: %.0f at 10 series, %.0f at 10 000; want the same, at most 8", small, large)
	}
}
