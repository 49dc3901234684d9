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

// Snapshot samples every instrument at virtual time `at`: Sample of the one
// registry.
func (r *Registry) Snapshot(at time.Duration) Snapshot { return Sample(at, r) }

// cursor walks one registry's instruments in name order, a meter's
// categories in order, during Sample.
type cursor struct {
	insts []*instrument
	cat   int // the next category of insts[0] when it is a meter
}

// skipEmpty drops leading meters with no category left: they emit no point.
func (c *cursor) skipEmpty() {
	for len(c.insts) > 0 && c.insts[0].meter != nil && c.cat >= c.insts[0].meter.Len() {
		c.insts, c.cat = c.insts[1:], 0
	}
}

// head returns the (Name, Label) of the cursor's next point.
func (c *cursor) head() (name, label string) {
	i := c.insts[0]
	if i.meter != nil {
		label, _ = i.meter.CategoryAt(c.cat)
	}
	return i.name, label
}

// Sample samples every instrument of the given registries — one pod's, or
// the disjoint registries of a cluster's pods — into one snapshot taken at
// `at`. Each registry keeps its instruments in name order and a meter walks
// its categories in order, so Sample counts the points, allocates them (and
// the histogram summaries, in one block) at exact length, and fills them by
// merging the registries' runs by (Name, Label), ties to the earlier
// registry: it never sorts and copies no point twice. Trace events merge in
// time order, ties likewise.
func Sample(at time.Duration, regs ...*Registry) Snapshot {
	var stack [8]cursor
	curs := stack[:0]
	n, hists := 0, 0
	for _, r := range regs {
		insts := r.instruments()
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
		curs = append(curs, cursor{insts: insts})
	}
	s := Snapshot{At: at}
	if n > 0 {
		s.Points = make([]Point, 0, n)
	}
	sums := make([]HistSummary, hists)
	for {
		best, bname, blabel := -1, "", ""
		for k := range curs {
			c := &curs[k]
			c.skipEmpty()
			if len(c.insts) == 0 {
				continue
			}
			if name, label := c.head(); best < 0 || keyLess(name, label, bname, blabel) {
				best, bname, blabel = k, name, label
			}
		}
		if best < 0 {
			break
		}
		c := &curs[best]
		switch i := c.insts[0]; {
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
			_, bytes := i.meter.CategoryAt(c.cat)
			s.Points = append(s.Points, Point{Name: i.name, Kind: KindCounter, Label: blabel, Value: float64(bytes)})
			c.cat++
			continue
		}
		c.insts = c.insts[1:]
	}
	checkOrder(s.Points)
	s.Events = mergeEvents(regs)
	return s
}

// mergeEvents returns the registries' retained trace events in time order,
// ties to the earlier registry: a stable sort of their concatenation.
func mergeEvents(regs []*Registry) []Event {
	if len(regs) == 1 {
		return regs[0].Events.Events()
	}
	runs, n := make([][]Event, len(regs)), 0
	for k, r := range regs {
		runs[k] = r.Events.Events()
		n += len(runs[k])
	}
	return mergeRuns(runs, n, func(a, b *Event) bool { return a.At < b.At })
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

// keyLess orders series by (Name, Label): the order of a Snapshot.
func keyLess(name, label, name2, label2 string) bool {
	if name != name2 {
		return name < name2
	}
	return label < label2
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
		if !keyLess(pts[i-1].Name, pts[i-1].Label, pts[i].Name, pts[i].Label) {
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
