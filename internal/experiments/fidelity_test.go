package experiments

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// claims is the fidelity table: every claim the reproduction makes about
// the paper, and every invariant a campaign's report must state, one row
// each. A row reads one (id, scale) run and holds either one Values key
// within a band or a named predicate over Values (a relational claim). It
// also carries the paper's value, where that value comes from (a paper
// figure or section, a DESIGN.md §4 constant, or DESIGN.md §9 for the
// robustness campaigns, which are not paper figures) and the number of the
// EXPERIMENTS.md "Known deviations" entry that explains a band wider than
// the paper's figure (0 when none).
//
// Each (id, scale) pair with rows runs once per go test, as a row of
// TestReportDigests, which checks the rows of every run it pins (both
// racksweep rows included); TestFidelity fails on a pair that no digest row
// runs. EXPERIMENTS.md's fidelity section is rendered from this table, and
// TestFidelity fails when the two differ.
var claims = []claim{
	{id: "fig2", scale: 0.5, name: "baseline NIC stranding", key: "base_nic", band: closed(0.20, 0.35), paper: "≈ 0.27", source: "Fig. 2"},
	{id: "fig2", scale: 0.5, name: "baseline SSD stranding", key: "base_ssd", band: closed(0.26, 0.40), paper: "≈ 0.33", source: "Fig. 2"},
	{id: "fig2", scale: 0.5, name: "pod-8 NIC stranding below baseline", pred: rel("pod8_nic", "<", 1, "base_nic", 0), paper: "falls with pod size", source: "Fig. 2"},
	{id: "fig2", scale: 0.5, name: "pod-8 SSD stranding below baseline", pred: rel("pod8_ssd", "<", 1, "base_ssd", 0), paper: "falls with pod size", source: "Fig. 2"},
	{id: "fig2", scale: 0.5, name: "pooling saves NICs at pod 8", key: "pod8_nics_per_pod", band: atMost(7.6), paper: "16 % less NIC bandwidth", source: "§2.2, Fig. 2", dev: 5},

	{id: "fig3", scale: 0.5, name: "host 1 P99.99 utilization", key: "host1_p9999", band: closed(0.39*0.6, 0.39*1.4), paper: "0.39", source: "Fig. 3, Table 2"},
	{id: "fig3", scale: 0.5, name: "host 1 idle at P99", key: "host1_p99", band: atMost(0.05), paper: "< 0.03", source: "Fig. 3"},
	{id: "fig3", scale: 0.5, name: "host 1 peak burst (Gbps)", key: "host1_peak_gbps", band: atLeast(20), paper: "~40", source: "Fig. 3"},

	{id: "tab1", scale: 1, name: "NIC packet rate (MOp/s)", key: "nic_mops", band: closed(2, 8), paper: "4", source: "Table 1; DESIGN.md §4 nic.PacketCost"},
	{id: "tab1", scale: 1, name: "SSD bandwidth (GB/s)", key: "ssd_gbps", band: equal(5.0), paper: "5", source: "Table 1; DESIGN.md §4 ssd.Bandwidth"},
	{id: "tab1", scale: 1, name: "SSD op rate (MOp/s)", key: "ssd_mops", band: closed(0.3, 0.7), paper: "0.5", source: "Table 1; DESIGN.md §4 ssd.OpCost"},

	{id: "tab2", scale: 0.5, name: "rack A aggregated P99.99 utilization", key: "rackA_agg", band: closed(0.05, 0.20), paper: "0.10", source: "Table 2"},
	{id: "tab2", scale: 0.5, name: "rack B aggregated P99.99 utilization", key: "rackB_agg", band: closed(0.10, 0.35), paper: "0.20", source: "Table 2"},

	{id: "fig6", scale: 0.5, name: "① bypass below ② naive prefetching", pred: rel("sat_0", "<", 1, "sat_1", 0), paper: "3.0 < 8.6 MOp/s", source: "Fig. 6", dev: 2},
	{id: "fig6", scale: 0.5, name: "② below ③ invalidate consumed", pred: rel("sat_1", "<", 1, "sat_2", 0), paper: "8.6 < 87 MOp/s", source: "Fig. 6", dev: 2},
	{id: "fig6", scale: 0.5, name: "③ an order of magnitude over ①", pred: rel("sat_2", "≥", 10, "sat_0", 0), paper: "87 vs 3.0 MOp/s", source: "Fig. 6", dev: 2},
	{id: "fig6", scale: 0.5, name: "④ beats the 14 MOp/s target", key: "sat_3", band: atLeast(14), paper: "~87 MOp/s", source: "§3.2.2, Fig. 6"},
	{id: "fig6", scale: 0.5, name: "④ under ③ at 14 MOp/s (median µs)", pred: rel("lat14_invPrefetched_us", "<", 1, "lat14_invConsumed_us", 0), paper: "~0.6 vs ~1.2 µs", source: "Fig. 6"},
	{id: "fig6", scale: 0.5, name: "④ median latency at 14 MOp/s (µs)", key: "lat14_invPrefetched_us", band: atMost(1.0), paper: "~0.6", source: "§3.2.2 ①; DESIGN.md §4 cxl.LoadLatency", dev: 1},

	{id: "fig8", scale: 0.05, name: "python-http overhead, conc 1 (µs)", key: "python-http_c1_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "python-http overhead, conc 6 (µs)", key: "python-http_c6_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "rocket overhead, conc 1 (µs)", key: "rocket_c1_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "rocket overhead, conc 6 (µs)", key: "rocket_c6_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "nginx overhead, conc 1 (µs)", key: "nginx_c1_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "nginx overhead, conc 6 (µs)", key: "nginx_c6_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "tomcat overhead, conc 1 (µs)", key: "tomcat_c1_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},
	{id: "fig8", scale: 0.05, name: "tomcat overhead, conc 6 (µs)", key: "tomcat_c6_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 8"},

	{id: "fig9", scale: 0.3, name: "memcached overhead, conc 1 (µs)", key: "memcached_c1_delta_p50_us", band: closed(1, 10), paper: "4–7", source: "Fig. 9"},

	{id: "fig10", scale: 0.3, name: "75 B echo overhead at 5 k/s (µs)", key: "s75_r5000_delta_p50_us", band: closed(1, 12), paper: "4–7", source: "Fig. 10", dev: 4},
	{id: "fig10", scale: 0.3, name: "1500 B echo overhead at 5 k/s (µs)", key: "s1500_r5000_delta_p50_us", band: closed(1, 12), paper: "4–7", source: "Fig. 10", dev: 4},
	{id: "fig10", scale: 0.3, name: "overhead independent of size (µs)", pred: &pred{
		text: "s1500_r5000_delta_p50_us − s75_r5000_delta_p50_us ∈ [-4, 4]",
		holds: func(l *lookup) bool {
			d := l.v("s1500_r5000_delta_p50_us") - l.v("s75_r5000_delta_p50_us")
			return closed(-4, 4).holds(d)
		}}, paper: "largely independent of size", source: "Fig. 10"},

	{id: "fig11", scale: 0.3, name: "CXL buffers alone add almost nothing (µs)", key: "cxlbuf_minus_base_us", band: atMost(2.5), paper: "almost no additional latency", source: "Fig. 11"},
	{id: "fig11", scale: 0.3, name: "message passing dominates buffer placement", pred: rel("oasis_minus_cxlbuf_us", "≥", 1, "cxlbuf_minus_base_us", 0), paper: "most of the overhead", source: "Fig. 11"},

	{id: "tab3", scale: 0.4, name: "idle payload bandwidth (GB/s)", key: "Idle_payload", band: atMost(0.01), paper: "0.0", source: "Table 3"},
	{id: "tab3", scale: 0.4, name: "idle message bandwidth (GB/s)", key: "Idle_message", band: closed(0.05, 1.5), paper: "0.2", source: "Table 3"},
	{id: "tab3", scale: 0.4, name: "1500 B payload dwarfs 75 B payload", pred: rel("Busy (1500 B)_payload", "≥", 4, "Busy (75 B)_payload", 0), paper: "12.0 vs 0.7 GB/s", source: "Table 3", dev: 3},
	{id: "tab3", scale: 0.4, name: "payload dominates messages at 1500 B", pred: rel("Busy (1500 B)_payload", "≥", 2, "Busy (1500 B)_message", 0), paper: "12.0 vs 1.5 GB/s", source: "Table 3", dev: 3},

	{id: "fig12", scale: 0.25, name: "host 1 P99 unharmed by multiplexing (µs)", pred: rel("mux_h1_p99_us", "≤", 1, "base_h1_p99_us", 6), paper: "+1 µs at most", source: "Fig. 12", dev: 3},
	{id: "fig12", scale: 0.25, name: "host 2 P99 unharmed by multiplexing (µs)", pred: rel("mux_h2_p99_us", "≤", 1, "base_h2_p99_us", 6), paper: "+1 µs at most", source: "Fig. 12", dev: 3},
	{id: "fig12", scale: 0.25, name: "multiplexing doubles utilization", pred: rel("util_multiplexed", "≥", 1.8, "util_own_nics", 0), paper: "18 % → 37 %", source: "Fig. 12"},

	{id: "fig13", scale: 0.1, name: "one failover", key: "failovers", band: equal(1), paper: "1", source: "Fig. 13"},
	{id: "fig13", scale: 0.1, name: "interruption (ms)", key: "outage_ms", band: closed(5, 100), paper: "38", source: "Fig. 13, §5.3; DESIGN.md §4 nic.LinkDebounce"},
	{id: "fig13", scale: 0.1, name: "probes lost in the outage", key: "lost", band: atLeast(3), paper: "loss for 38 ms", source: "Fig. 13"},

	{id: "fig14", scale: 0.2, name: "memcached recovers (ms)", key: "recovery_ms", band: above(0), paper: "133", source: "Fig. 14"},
	{id: "fig14", scale: 0.2, name: "recovery after TCP retransmission (ms)", key: "recovery_ms", band: closed(10, 400), paper: "133", source: "Fig. 14", dev: 6},

	{id: "abl-counter", scale: 0.5, name: "counter batching amortizes", pred: rel("batch4096", "≥", 2, "batch1", 0), paper: "batching needed", source: "§4"},

	{id: "abl-inspect", scale: 0.4, name: "inspection path exercised", key: "inspected", band: atLeast(10), paper: "—", source: "§3.3.1"},
	{id: "abl-inspect", scale: 0.4, name: "inspection costs more than flow tagging", pred: rel("inspect_p50_us", ">", 1, "tagged_p50_us", 0), paper: "tagging avoids payload reads", source: "§3.3.1"},

	{id: "abl-failover", scale: 0.5, name: "MAC-borrow interruption (ms)", key: "borrow_ms", band: closed(5, 120), paper: "38", source: "§5.3; DESIGN.md §4 nic.LinkDebounce"},
	{id: "abl-failover", scale: 0.5, name: "GARP-only no faster than MAC borrowing", pred: rel("garp_ms", "≥", 1, "borrow_ms", 0), paper: "borrowing preferred", source: "§3.3.3, §6"},

	{id: "abl-coherent", scale: 0.5, name: "HW-coherent channel at least matches software coherence", pred: rel("hw_mops", "≥", 0.9, "sw_mops", 0), paper: "could benefit", source: "§6"},

	{id: "abl-sharding", scale: 0.5, name: "4 shards scale throughput", pred: rel("shards4", "≥", 2.5, "shards1", 0), paper: "path past one core", source: "§6"},

	{id: "abl-qos", scale: 0.5, name: "QoS beats no QoS under a flood (P99 µs)", pred: rel("qos_p99_us", "<", 1, "noqos_p99_us", 0), paper: "QoS protects signaling", source: "§6"},
	{id: "abl-qos", scale: 0.5, name: "the flood inflates latency (P99 µs)", key: "noqos_p99_us", band: atLeast(1.5), paper: "—", source: "§6"},

	{id: "abl-storage", scale: 0.5, name: "depth-1 remote read P50 (µs)", key: "d1_p50_us", band: closed(80, 130), paper: "— (device read 100, Table 1)", source: "§3.4; DESIGN.md §4 ssd.ReadLatency", dev: 7},
	{id: "abl-storage", scale: 0.5, name: "queue depth lifts IOPS", pred: rel("d64_kiops", "≥", 4, "d1_kiops", 0), paper: "—", source: "§3.4"},
	{id: "abl-storage", scale: 0.5, name: "depth 64 within the device ceiling (kIOPS)", key: "d64_kiops", band: atMost(520), paper: "500", source: "Table 1; DESIGN.md §4 ssd.OpCost"},

	{id: "chaos", scale: 1, name: "recovery invariants broken", key: "violations", band: equal(0), paper: "—", source: "DESIGN.md §9"},

	{id: "grayfail", scale: 1, name: "invariants broken", key: "violations", band: equal(0), paper: "—", source: "DESIGN.md §9"},
	{id: "grayfail", scale: 1, name: "health scorer evacuates the gray NIC", key: "health_nic_evacs", band: atLeast(1), paper: "—", source: "DESIGN.md §9"},
	{id: "grayfail", scale: 1, name: "health scorer evacuates the gray SSD", key: "health_ssd_evacs", band: atLeast(1), paper: "—", source: "DESIGN.md §9"},
	{id: "grayfail", scale: 1, name: "no hard NIC failover", key: "nic_failovers", band: equal(0), paper: "—", source: "DESIGN.md §9"},
	{id: "grayfail", scale: 1, name: "no hard SSD failover", key: "ssd_failovers", band: equal(0), paper: "—", source: "DESIGN.md §9"},

	{id: "blackout", scale: 0.5, name: "invariants broken", key: "violations", band: equal(0), paper: "—", source: "DESIGN.md §9"},
	{id: "blackout", scale: 0.5, name: "write rates in the grid", key: "rates", band: atLeast(2), paper: "—", source: "DESIGN.md §9"},
	{id: "blackout", scale: 0.5, name: "pre-copy under stop-the-world at every rate", pred: &pred{
		text: "0 < precopy_<rate> < stw_<rate> at every rate",
		holds: func(l *lookup) bool {
			rates := 0
			for _, k := range sortedKeys(l.values) {
				if rate, ok := strings.CutPrefix(k, "precopy_"); ok {
					rates++
					if pre, stw := l.v(k), l.v("stw_"+rate); pre <= 0 || stw <= 0 || pre >= stw {
						return false
					}
				}
			}
			return rates > 0
		}}, paper: "—", source: "DESIGN.md §9"},

	{id: "racksweep", scale: 0.05, name: "simulated hosts", key: "hosts", band: atLeast(200), paper: "—", source: "DESIGN.md §8"},
	{id: "racksweep", scale: 0.05, name: "simulated pods", key: "pods", band: atLeast(2), paper: "—", source: "DESIGN.md §8"},
	{id: "racksweep", scale: 0.05, name: "hot-spot rebalance migrates across pods", pred: nonzero("migrations"), paper: "—", source: "§6"},
	{id: "racksweep", scale: 0.05, name: "rebalance narrows the spread", pred: rel("spread_final", "≤", 1, "spread_skewed", -2), paper: "—", source: "§6"},
	{id: "racksweep", scale: 0.05, name: "traffic completes during the sweep", pred: nonzero("echoes"), paper: "—", source: "DESIGN.md §8"},
	{id: "racksweep", scale: 0.05, name: "stranding falls as the pooling domain grows", pred: rel("pod64_nic", "<", 1, "pod8_nic", 0), paper: "falls with pod size", source: "Fig. 2"},
}

// claim is one row of the fidelity table.
type claim struct {
	id     string  // experiment id in Registry
	scale  float64 // the scale of the run the row reads
	name   string  // the claim, in words
	key    string  // the Values key band bounds; empty for a predicate row
	band   band
	pred   *pred  // a relational claim over Values, when key is empty
	paper  string // the paper's value
	source string // where the paper's value comes from
	dev    int    // the EXPERIMENTS.md Known deviations entry; 0 when none
}

func (c claim) String() string { return fmt.Sprintf("%s@%v %q", c.id, c.scale, c.name) }

// check is the row's test in one line: the band column of the fidelity
// section.
func (c claim) check() string {
	if c.pred != nil {
		return c.pred.text
	}
	return c.key + " " + c.band.String()
}

// fails says why values break the row, or returns "" when they keep it. A
// key absent from values fails the row: a renamed key must not read as 0.
func (c claim) fails(values map[string]float64) string {
	l := &lookup{values: values}
	var ok bool
	if c.pred != nil {
		ok = c.pred.holds(l)
	} else {
		ok = c.band.holds(l.v(c.key))
	}
	switch {
	case len(l.missing) > 0:
		return fmt.Sprintf("%s: %s absent from the report", c, strings.Join(l.missing, ", "))
	case !ok:
		return fmt.Sprintf("%s: %s, want %s", c, strings.Join(l.read, " "), c.check())
	}
	return ""
}

// band is an interval whose edges are each open or closed; an infinite
// edge leaves its side unbounded.
type band struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

func closed(lo, hi float64) band { return band{lo: lo, hi: hi} }
func equal(x float64) band       { return closed(x, x) }
func atMost(x float64) band      { return closed(math.Inf(-1), x) }
func atLeast(x float64) band     { return closed(x, math.Inf(1)) }
func above(x float64) band       { return band{lo: x, hi: math.Inf(1), loOpen: true} }

func (b band) holds(v float64) bool {
	return (v > b.lo || v == b.lo && !b.loOpen) && (v < b.hi || v == b.hi && !b.hiOpen)
}

func (b band) String() string {
	switch {
	case b.lo == b.hi:
		return "= " + num(b.lo)
	case math.IsInf(b.lo, -1) && b.hiOpen:
		return "< " + num(b.hi)
	case math.IsInf(b.lo, -1):
		return "≤ " + num(b.hi)
	case math.IsInf(b.hi, 1) && b.loOpen:
		return "> " + num(b.lo)
	case math.IsInf(b.hi, 1):
		return "≥ " + num(b.lo)
	}
	l, r := "[", "]"
	if b.loOpen {
		l = "("
	}
	if b.hiOpen {
		r = ")"
	}
	return "∈ " + l + num(b.lo) + ", " + num(b.hi) + r
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// pred is a named claim over a report's Values; text is what the fidelity
// section prints for it.
type pred struct {
	text  string
	holds func(l *lookup) bool
}

// lookup hands a row the report's values, noting every key it reads and
// every key it finds absent.
type lookup struct {
	values  map[string]float64
	read    []string
	missing []string
}

func (l *lookup) v(key string) float64 {
	x, ok := l.values[key]
	if !ok {
		l.missing = append(l.missing, key)
	}
	l.read = append(l.read, fmt.Sprintf("%s=%v", key, x))
	return x
}

// rel is the relational claim a op k·b + c.
func rel(a, op string, k float64, b string, c float64) *pred {
	cmp := map[string]func(x, y float64) bool{
		"<": func(x, y float64) bool { return x < y },
		"≤": func(x, y float64) bool { return x <= y },
		">": func(x, y float64) bool { return x > y },
		"≥": func(x, y float64) bool { return x >= y },
	}[op]
	text := a + " " + op + " "
	if k != 1 {
		text += num(k) + " × "
	}
	text += b
	if c > 0 {
		text += " + " + num(c)
	} else if c < 0 {
		text += " − " + num(-c)
	}
	// The conversion rounds k·b before c is added: no fused multiply-add.
	return &pred{text, func(l *lookup) bool { return cmp(l.v(a), float64(k*l.v(b))+c) }}
}

func nonzero(key string) *pred {
	return &pred{key + " ≠ 0", func(l *lookup) bool { return l.v(key) != 0 }}
}

// checkClaims checks r against every row of (r.ID, scale).
func checkClaims(t *testing.T, r *Report, scale float64) {
	t.Helper()
	for _, c := range claims {
		if c.id == r.ID && c.scale == scale {
			if msg := c.fails(r.Values); msg != "" {
				t.Error(msg)
			}
		}
	}
}

const (
	fidelityBegin = "<!-- fidelity:begin -->"
	fidelityEnd   = "<!-- fidelity:end -->"
)

// renderFidelity is EXPERIMENTS.md's fidelity section, one line per row.
func renderFidelity() string {
	var b strings.Builder
	b.WriteString("| id | scale | claim | band | paper | source | dev |\n|---|---|---|---|---|---|---|\n")
	for _, c := range claims {
		dev := "—"
		if c.dev != 0 {
			dev = strconv.Itoa(c.dev)
		}
		fmt.Fprintf(&b, "| `%s` | %v | %s | `%s` | %s | %s | %s |\n", c.id, c.scale, c.name, c.check(), c.paper, c.source, dev)
	}
	return b.String()
}

// TestFidelity keeps the table whole: every registered experiment has rows
// and every row names one, EXPERIMENTS.md's fidelity section is the table's
// rendering, the rows and the Known deviations list cite each other both
// ways, and every (id, scale) pair of the table — one subtest each — is run,
// and its rows checked, by a TestReportDigests row.
func TestFidelity(t *testing.T) {
	ids := IDs()
	for _, id := range ids {
		if !slices.ContainsFunc(claims, func(c claim) bool { return c.id == id }) {
			t.Errorf("experiment %s has no fidelity row", id)
		}
	}
	seen := map[string]bool{}
	for _, c := range claims {
		if !slices.Contains(ids, c.id) {
			t.Errorf("%s: no experiment %s in the registry", c, c.id)
		}
		if seen[c.String()] {
			t.Errorf("%s: two rows with one name", c)
		}
		seen[c.String()] = true
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(doc), fidelityBegin+"\n")
	section, _, found := strings.Cut(rest, fidelityEnd)
	if want := renderFidelity(); !found || section != want {
		t.Errorf("EXPERIMENTS.md's fidelity section is not the table's rendering; between %s and %s it must read:\n%s",
			fidelityBegin, fidelityEnd, want)
	}
	_, deviations, _ := strings.Cut(string(doc), "## Known deviations")
	numbered := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. \*\*`).FindAllStringSubmatch(deviations, -1) {
		n, _ := strconv.Atoi(m[1])
		numbered[n] = true
	}
	cited := map[int]bool{}
	for _, c := range claims {
		if c.dev != 0 && !numbered[c.dev] {
			t.Errorf("%s cites deviation %d, which EXPERIMENTS.md does not list", c, c.dev)
		}
		cited[c.dev] = true
	}
	for n := range numbered {
		if !cited[n] {
			t.Errorf("EXPERIMENTS.md deviation %d is cited by no fidelity row", n)
		}
	}

	pinned := map[string]bool{}
	for _, d := range digestRuns() {
		id, _, _ := strings.Cut(d.name, "/")
		pinned[fmt.Sprintf("%s@%v", id, d.scale)] = true
	}
	tested := map[string]bool{}
	for _, c := range claims {
		name := fmt.Sprintf("%s@%v", c.id, c.scale)
		if tested[name] {
			continue
		}
		tested[name] = true
		t.Run(name, func(t *testing.T) {
			if !pinned[name] {
				t.Errorf("no TestReportDigests row runs %s: its fidelity rows are never checked", name)
			}
		})
	}
}

// TestClaimCheck pins what a row means: a band's closed edges admit their
// value and its open edges refuse it, relational rows compare the way
// their text says, an absent key fails the row (a renamed key must not
// read as 0) and a failure names the row.
func TestClaimCheck(t *testing.T) {
	row := func(id string, scale float64, name string) claim {
		for _, c := range claims {
			if c.id == id && c.scale == scale && c.name == name {
				return c
			}
		}
		t.Fatalf("no row %s@%v %q", id, scale, name)
		return claim{}
	}
	// No row of the table has a half-open band; this one pins its edges.
	openLow := claim{id: "fig13", scale: 0.1, name: "interruption (ms)", key: "outage_ms", band: band{lo: 0, hi: 100, loOpen: true}}
	tests := []struct {
		name   string
		row    claim
		values map[string]float64
		pass   bool
	}{
		{"closed low edge", row("fig2", 0.5, "baseline NIC stranding"), map[string]float64{"base_nic": 0.20}, true},
		{"closed high edge", row("fig2", 0.5, "baseline NIC stranding"), map[string]float64{"base_nic": 0.35}, true},
		{"past the high edge", row("fig2", 0.5, "baseline NIC stranding"), map[string]float64{"base_nic": math.Nextafter(0.35, 1)}, false},
		{"past the low edge", row("fig2", 0.5, "baseline NIC stranding"), map[string]float64{"base_nic": math.Nextafter(0.20, 0)}, false},
		{"open low edge refused", openLow, map[string]float64{"outage_ms": 0}, false},
		{"closed high edge of an open band", openLow, map[string]float64{"outage_ms": 100}, true},
		{"open edge refused", row("fig14", 0.2, "memcached recovers (ms)"), map[string]float64{"recovery_ms": 0}, false},
		{"just inside an open edge", row("fig14", 0.2, "memcached recovers (ms)"), map[string]float64{"recovery_ms": math.SmallestNonzeroFloat64}, true},
		{"equality", row("tab1", 1, "SSD bandwidth (GB/s)"), map[string]float64{"ssd_gbps": 5}, true},
		{"strict relation refuses equality", row("fig2", 0.5, "pod-8 NIC stranding below baseline"), map[string]float64{"pod8_nic": 0.3, "base_nic": 0.3}, false},
		{"strict relation", row("fig2", 0.5, "pod-8 NIC stranding below baseline"), map[string]float64{"pod8_nic": 0.2, "base_nic": 0.3}, true},
		{"scaled relation edge", row("fig6", 0.5, "③ an order of magnitude over ①"), map[string]float64{"sat_2": 30, "sat_0": 3}, true},
		{"offset relation edge", row("fig12", 0.25, "host 1 P99 unharmed by multiplexing (µs)"), map[string]float64{"mux_h1_p99_us": 16, "base_h1_p99_us": 10}, true},
		{"offset relation past its edge", row("fig12", 0.25, "host 1 P99 unharmed by multiplexing (µs)"), map[string]float64{"mux_h1_p99_us": 16.5, "base_h1_p99_us": 10}, false},
		{"missing key under an upper bound", row("fig3", 0.5, "host 1 idle at P99"), map[string]float64{}, false},
		{"missing NICs per pod", row("fig2", 0.5, "pooling saves NICs at pod 8"), map[string]float64{}, false},
		{"missing buffer cost", row("fig11", 0.3, "CXL buffers alone add almost nothing (µs)"), map[string]float64{}, false},
		{"missing idle payload", row("tab3", 0.4, "idle payload bandwidth (GB/s)"), map[string]float64{}, false},
		{"missing key under a relation", row("fig2", 0.5, "pod-8 NIC stranding below baseline"), map[string]float64{"pod8_nic": -1}, false},
		{"missing stop-the-world rate", row("blackout", 0.5, "pre-copy under stop-the-world at every rate"), map[string]float64{"precopy_us_1": 1}, false},
		{"no rates at all", row("blackout", 0.5, "pre-copy under stop-the-world at every rate"), map[string]float64{}, false},
		{"every rate under stop-the-world", row("blackout", 0.5, "pre-copy under stop-the-world at every rate"), map[string]float64{"precopy_us_1": 1, "stw_us_1": 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			msg := tt.row.fails(tt.values)
			if pass := msg == ""; pass != tt.pass {
				t.Fatalf("%s on %v: pass = %v, want %v (%s)", tt.row, tt.values, pass, tt.pass, msg)
			}
			if !tt.pass && !strings.HasPrefix(msg, tt.row.String()+": ") {
				t.Errorf("failure message %q does not name the row %s", msg, tt.row)
			}
		})
	}
}
