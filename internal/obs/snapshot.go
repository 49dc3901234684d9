package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// HistSummary is a histogram's fixed-quantile digest, carried by value in a
// Point so snapshots stay self-contained and JSON-stable.
type HistSummary struct {
	Count int64         `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Point is one sampled series: a counter or gauge value, or a histogram
// summary. Meter-backed instruments emit one Point per category with Label
// set, so `cxl/port/host0/rd_bytes` appears once per traffic class.
type Point struct {
	Name  string       `json:"name"`
	Kind  string       `json:"kind"`
	Label string       `json:"label,omitempty"`
	Value float64      `json:"value"`
	Hist  *HistSummary `json:"hist,omitempty"`
}

// Snapshot is one deterministic sample of every registered instrument:
// points sorted by (Name, Label), plus the retained tail of the trace ring.
// Identical runs produce byte-identical JSON encodings.
type Snapshot struct {
	At     time.Duration `json:"at_ns"`
	Points []Point       `json:"points"`
	Events []Event       `json:"events,omitempty"`
}

// Snapshot samples every instrument at virtual time `at`. Instruments come
// in name order and a meter walks its categories in order, so the points
// arrive sorted: Snapshot counts them, allocates them (and the histogram
// summaries, in one block) at exact length, and never sorts.
func (r *Registry) Snapshot(at time.Duration) Snapshot {
	insts := r.instruments()
	n, hists := 0, 0
	for _, i := range insts {
		switch {
		case i.meter != nil:
			n += i.meter.Len()
		case i.hist != nil:
			hists++
			n++
		default:
			n++
		}
	}
	s := Snapshot{At: at}
	if n > 0 {
		s.Points = make([]Point, 0, n)
	}
	sums := make([]HistSummary, hists)
	for _, i := range insts {
		switch {
		case i.counter != nil:
			s.Points = append(s.Points, Point{Name: i.name, Kind: i.kind, Value: float64(i.counter())})
		case i.gauge != nil:
			s.Points = append(s.Points, Point{Name: i.name, Kind: i.kind, Value: i.gauge()})
		case i.hist != nil:
			h, sum := i.hist, &sums[0]
			sums = sums[1:]
			*sum = HistSummary{
				Count: h.Count(),
				Min:   h.Min(),
				Mean:  h.Mean(),
				P50:   h.Percentile(50),
				P90:   h.Percentile(90),
				P99:   h.Percentile(99),
				P999:  h.Percentile(99.9),
				Max:   h.Max(),
			}
			s.Points = append(s.Points, Point{Name: i.name, Kind: KindHistogram, Hist: sum})
		case i.meter != nil:
			for c := 0; c < i.meter.Len(); c++ {
				cat, bytes := i.meter.CategoryAt(c)
				s.Points = append(s.Points, Point{Name: i.name, Kind: KindCounter, Label: cat, Value: float64(bytes)})
			}
		}
	}
	checkOrder(s.Points)
	s.Events = r.Events.Events()
	return s
}

// Merge combines snapshots of disjoint registries — a cluster's pods — into
// one taken at `at`. Each part's points are sorted, so Merge merges the
// runs instead of sorting their concatenation; its trace events merge in
// time order. Ties go to the earlier part, which is what a stable sort of
// the concatenation gives.
func Merge(at time.Duration, parts ...Snapshot) Snapshot {
	pts, evs := make([][]Point, len(parts)), make([][]Event, len(parts))
	np, ne := 0, 0
	for k, p := range parts {
		pts[k], evs[k] = p.Points, p.Events
		np += len(p.Points)
		ne += len(p.Events)
	}
	s := Snapshot{
		At:     at,
		Points: mergeRuns(pts, np, pointLess),
		Events: mergeRuns(evs, ne, func(a, b *Event) bool { return a.At < b.At }),
	}
	checkOrder(s.Points)
	return s
}

// mergeRuns merges sorted runs holding n elements in all into one slice,
// nil when n is 0; ties go to the earlier run.
func mergeRuns[T any](runs [][]T, n int, less func(a, b *T) bool) []T {
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for len(out) < n {
		best := -1
		for k, run := range runs {
			if len(run) > 0 && (best < 0 || less(&run[0], &runs[best][0])) {
				best = k
			}
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}

// pointLess orders points by (Name, Label): the order of a Snapshot.
func pointLess(a, b *Point) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Label < b.Label
}

// checking is OASIS_SIMCHECK=1, the simulator's self-check mode.
var checking = os.Getenv("OASIS_SIMCHECK") == "1"

// checkOrder is the OASIS_SIMCHECK=1 guard on a snapshot: its points
// strictly increase by (Name, Label), so no sort was needed and no two
// series collide.
func checkOrder(pts []Point) {
	if !checking {
		return
	}
	for i := 1; i < len(pts); i++ {
		if !pointLess(&pts[i-1], &pts[i]) {
			panic(fmt.Sprintf("obs: snapshot point %q{%s} does not follow %q{%s}",
				pts[i].Name, pts[i].Label, pts[i-1].Name, pts[i-1].Label))
		}
	}
}

// Point returns the first point with the given name (any label).
func (s Snapshot) Point(name string) (Point, bool) {
	for _, pt := range s.Points {
		if pt.Name == name {
			return pt, true
		}
	}
	return Point{}, false
}

// Value returns a counter's or gauge's sampled value, 0 if absent.
func (s Snapshot) Value(name string) float64 {
	pt, _ := s.Point(name)
	return pt.Value
}

// Category returns a meter point's value for one category, 0 if absent.
func (s Snapshot) Category(name, label string) float64 {
	for _, pt := range s.Points {
		if pt.Name == name && pt.Label == label {
			return pt.Value
		}
	}
	return 0
}

// Histogram returns a histogram point's summary, nil if absent.
func (s Snapshot) Histogram(name string) *HistSummary {
	pt, ok := s.Point(name)
	if !ok {
		return nil
	}
	return pt.Hist
}

// JSON returns the snapshot's deterministic JSON encoding.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// The type marshals by construction; reaching this is a bug.
		panic(fmt.Sprintf("obs: snapshot marshal: %v", err))
	}
	return b
}

// fmtValue renders an integral float without a decimal point, so counters
// read as counts.
func fmtValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the human-readable report: one line per point, histogram
// digests inline, trace events at the tail. This is what every command
// prints as a pod's Stats().String().
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pod after %v of virtual time\n", s.At)
	for _, pt := range s.Points {
		switch {
		case pt.Hist != nil:
			h := pt.Hist
			fmt.Fprintf(&b, "  %s count=%d p50=%v p90=%v p99=%v max=%v\n",
				pt.Name, h.Count, h.P50, h.P90, h.P99, h.Max)
		case pt.Label != "":
			fmt.Fprintf(&b, "  %s{%s} %s\n", pt.Name, pt.Label, fmtValue(pt.Value))
		default:
			fmt.Fprintf(&b, "  %s %s\n", pt.Name, fmtValue(pt.Value))
		}
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(&b, "  events (%d retained):\n", len(s.Events))
		for _, ev := range s.Events {
			fmt.Fprintf(&b, "    t=%-12v %s: %s\n", ev.At, ev.Src, ev.Msg)
		}
	}
	return b.String()
}

// promName sanitizes a hierarchical instrument name into a Prometheus metric
// name: slashes and other forbidden runes become underscores, with an oasis_
// namespace prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("oasis_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromText renders the snapshot in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as summary quantiles in
// seconds plus a _count sample.
func (s Snapshot) PromText() string {
	var b strings.Builder
	for _, pt := range s.Points {
		name := promName(pt.Name)
		switch {
		case pt.Hist != nil:
			h := pt.Hist
			for _, q := range []struct {
				q string
				v time.Duration
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}, {"0.999", h.P999}} {
				fmt.Fprintf(&b, "%s{quantile=%q} %s\n", name, q.q,
					strconv.FormatFloat(q.v.Seconds(), 'g', -1, 64))
			}
			fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
		case pt.Label != "":
			fmt.Fprintf(&b, "%s{category=%q} %s\n", name, pt.Label, fmtValue(pt.Value))
		default:
			fmt.Fprintf(&b, "%s %s\n", name, fmtValue(pt.Value))
		}
	}
	return b.String()
}
