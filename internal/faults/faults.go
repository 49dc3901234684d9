// Package faults is the pod's deterministic fault-injection subsystem: a
// typed vocabulary of failures — fail-stop (host crashes, engine stalls,
// link drops, drive failures, switch-port flaps) and degraded-mode gray
// failures (slow drives, lossy NICs, CXL jitter, flaky links) — a replayable
// Plan that schedules them on the simulation clock, and an Injector that
// executes the plan through per-kind handlers supplied by the binding
// layer (the pod). Everything is driven by virtual time and fixed seeds,
// so a chaos campaign is byte-for-byte reproducible: the same Plan against
// the same topology yields the same injection log, the same recovery
// histograms, and the same experiment report.
//
// The package deliberately knows nothing about pod internals — handlers
// close over whatever state a fault needs to flip. That keeps the fault
// vocabulary reusable (experiments, tests, examples) and the blast radius
// of each fault explicit at the binding site.
package faults

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"oasis/internal/metrics"
	"oasis/internal/obs"
	"oasis/internal/sim"
)

// Kind enumerates the fault vocabulary.
type Kind uint8

const (
	// HostCrash fail-stops a pod host: every engine loop on it freezes and
	// its raft replica (if any) stops. Healing restarts the loops and the
	// replica (which rejoins as a follower).
	HostCrash Kind = iota + 1
	// EngineStall freezes one engine's driver loop — the software analogue
	// of a wedged driver core. Healing resumes it; a stalled backend that
	// held I/Os completes them late, which is exactly the zombie the
	// storage engine's epoch fencing must reject.
	EngineStall
	// NICLinkDown forces a NIC's PHY link down (below the switch port, so
	// debounce state is invalidated). Healing forces it back up.
	NICLinkDown
	// SSDFail fail-stops a drive's controller. Healing repairs the
	// controller, but the drive's contents are treated as stale — a healed
	// drive does not get its volumes back (no automatic fail-back).
	SSDFail
	// PortFlap disables a switch port and re-enables it after Heal — the
	// paper's §5.3 failure injection, made transient.
	PortFlap
	// CXLDegrade multiplies a CXL port's latency by LatMult and cuts its
	// bandwidth to BWFrac of nominal — a degraded retimer/link, the gray
	// failure between healthy and dead. Healing restores nominal service.
	CXLDegrade
	// SSDSlow inflates a drive's media latency by LatMult without failing
	// it — the classic gray drive: I/O still completes, just late enough to
	// drag every dependent tail. Healing restores nominal latency.
	SSDSlow
	// NICLossy drops a pseudo-random fraction Drop of the NIC's frames
	// (seeded, deterministic), leaving the link administratively up — loss
	// the link-state machinery never sees. Healing stops the drops.
	NICLossy
	// CXLJitter adds a fixed Jitter to every transaction on a host's CXL
	// port, on top of nominal latency — a marginal retimer adding delay
	// without losing bandwidth. Healing removes it.
	CXLJitter
	// LinkFlaky pulses a NIC's switch port down for Stall every Period.
	// Each pulse is meant to undercut the NIC's link debounce so the link
	// never *reports* down while traffic stalls intermittently — the
	// gray counterpart of PortFlap. Healing stops the pulse train.
	LinkFlaky
)

// param is one option of an event line: its key in the text form, how its
// value is read into an Event and rendered back, and the range a kind that
// reads it accepts. Every key parses on every line — a parameter the line's
// kind does not read is carried in the Event and dropped by Encode; only a
// kind's own parameters are range-checked and encoded.
type param struct {
	key   string
	parse func(ev *Event, v string) error
	text  func(ev *Event) string
	rng   string               // the valid range in words, for Validate's error
	ok    func(ev *Event) bool // whether the event's value is inside it
}

// num and dur build the param for a float64 and a Duration field of Event.
func num(key string, at func(*Event) *float64, rng string, ok func(*Event) bool) *param {
	return &param{key: key, rng: rng, ok: ok,
		parse: func(ev *Event, v string) (err error) { *at(ev), err = strconv.ParseFloat(v, 64); return },
		text:  func(ev *Event) string { return fmt.Sprintf("%g", *at(ev)) },
	}
}

func dur(key string, at func(*Event) *sim.Duration, rng string, ok func(*Event) bool) *param {
	return &param{key: key, rng: rng, ok: ok,
		parse: func(ev *Event, v string) (err error) { *at(ev), err = time.ParseDuration(v); return },
		text:  func(ev *Event) string { return at(ev).String() },
	}
}

var (
	heal   = dur("heal", func(ev *Event) *sim.Duration { return &ev.Heal }, "", nil) // every kind; Validate checks it with At
	lat    = num("lat", func(ev *Event) *float64 { return &ev.LatMult }, ">= 1", func(ev *Event) bool { return ev.LatMult >= 1 })
	bw     = num("bw", func(ev *Event) *float64 { return &ev.BWFrac }, "in (0,1]", func(ev *Event) bool { return ev.BWFrac > 0 && ev.BWFrac <= 1 })
	drop   = num("drop", func(ev *Event) *float64 { return &ev.Drop }, "in (0,1]", func(ev *Event) bool { return ev.Drop > 0 && ev.Drop <= 1 })
	jitter = dur("jitter", func(ev *Event) *sim.Duration { return &ev.Jitter }, "> 0", func(ev *Event) bool { return ev.Jitter > 0 })
	period = dur("period", func(ev *Event) *sim.Duration { return &ev.Period }, "> 0", func(ev *Event) bool { return ev.Period > 0 })
	stall  = dur("stall", func(ev *Event) *sim.Duration { return &ev.Stall }, "in (0,period)", func(ev *Event) bool { return ev.Stall > 0 && ev.Stall < ev.Period })

	// params is every option key ParsePlan accepts.
	params = []*param{heal, lat, bw, drop, jitter, period, stall}
)

// kinds is the fault vocabulary, one row per Kind and indexed by it: the
// wire name of the plan text form, the parameters the kind reads (Validate
// range-checks them and Encode writes them, in this order), and whether an
// event must heal — a permanently disabled switch port is a topology change,
// not a fault. String, Kinds, Validate, Encode and ParsePlan are all derived
// from this table; a new kind is one const, one row here and one row in the
// pod's binding table.
var kinds = [...]struct {
	name     string
	reads    []*param
	mustHeal bool
}{
	HostCrash:   {name: "host-crash"},
	EngineStall: {name: "engine-stall"},
	NICLinkDown: {name: "nic-link-down"},
	SSDFail:     {name: "ssd-fail"},
	PortFlap:    {name: "port-flap", mustHeal: true},
	CXLDegrade:  {name: "cxl-degrade", reads: []*param{lat, bw}},
	SSDSlow:     {name: "ssd-slow", reads: []*param{lat}},
	NICLossy:    {name: "nic-lossy", reads: []*param{drop}},
	CXLJitter:   {name: "cxl-jitter", reads: []*param{jitter}},
	LinkFlaky:   {name: "link-flaky", reads: []*param{period, stall}, mustHeal: true},
}

func (k Kind) known() bool { return k >= 1 && int(k) < len(kinds) }

// Kinds lists every fault kind in declaration order (stable for reports).
func Kinds() []Kind {
	out := make([]Kind, 0, len(kinds)-1)
	for k := 1; k < len(kinds); k++ {
		out = append(out, Kind(k))
	}
	return out
}

func (k Kind) String() string {
	if k.known() {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindFromString is the inverse of String (used by ParsePlan).
func kindFromString(s string) (Kind, bool) {
	for _, k := range Kinds() {
		if kinds[k].name == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one scheduled fault.
type Event struct {
	At     sim.Duration // injection time on the sim clock
	Kind   Kind
	Target string       // binding-layer name: "host2", "nic1", "ssd1", a driver loop…
	Heal   sim.Duration // delay until auto-heal; 0 = never heals
	// Degradation parameters; the kinds table says which kinds read each
	// and the params above what values they accept.
	LatMult float64      // latency multiplier
	BWFrac  float64      // remaining bandwidth fraction
	Drop    float64      // dropped-frame fraction
	Jitter  sim.Duration // added per-transaction latency
	Period  sim.Duration // stall cadence
	Stall   sim.Duration // per-pulse stall length
}

// Plan is a named, seeded schedule of fault events. The seed does not
// drive anything inside this package (injection times are explicit); it is
// carried so experiments that randomize their plan record the seed with it
// and replays are self-describing.
type Plan struct {
	Name   string
	Seed   int64
	Events []Event
}

// Sorted returns a copy of the plan with events in injection order
// (stable, so same-time events keep their declaration order).
func (pl Plan) Sorted() Plan {
	out := Plan{Name: pl.Name, Seed: pl.Seed, Events: make([]Event, len(pl.Events))}
	copy(out.Events, pl.Events)
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	return out
}

// Validate checks the plan is executable: known kinds, named targets,
// non-negative times, must-heal kinds that do heal, and every parameter a
// kind reads inside its range.
func (pl Plan) Validate() error {
	for i := range pl.Events {
		ev := &pl.Events[i]
		if !ev.Kind.known() {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Target == "" {
			return fmt.Errorf("faults: event %d (%v): empty target", i, ev.Kind)
		}
		if ev.At < 0 || ev.Heal < 0 {
			return fmt.Errorf("faults: event %d (%v %s): negative time", i, ev.Kind, ev.Target)
		}
		row := &kinds[ev.Kind]
		if row.mustHeal && ev.Heal == 0 {
			return fmt.Errorf("faults: event %d: %v on %s must heal (set Heal > 0)", i, ev.Kind, ev.Target)
		}
		for _, p := range row.reads {
			if !p.ok(ev) {
				return fmt.Errorf("faults: event %d: %v on %s needs %s %s, got %s",
					i, ev.Kind, ev.Target, p.key, p.rng, p.text(ev))
			}
		}
	}
	return nil
}

// Encode renders the plan in its canonical replayable text form:
//
//	plan <name> seed=<seed>
//	<at> <kind> <target> heal=<heal> [<key>=<value> for each parameter the kind reads]
//
// Encode(ParsePlan(s)) == s for canonical s, and two plans are equal iff
// their encodings are byte-identical — the property the chaos experiment's
// replay recipe relies on.
func (pl Plan) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s seed=%d\n", pl.Name, pl.Seed)
	for _, ev := range pl.Sorted().Events {
		fmt.Fprintf(&b, "%v %s %s heal=%v", ev.At, ev.Kind, ev.Target, ev.Heal)
		if ev.Kind.known() {
			for _, p := range kinds[ev.Kind].reads {
				fmt.Fprintf(&b, " %s=%s", p.key, p.text(&ev))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParsePlan parses the Encode text form.
func ParsePlan(s string) (Plan, error) {
	var pl Plan
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "plan ") {
		return pl, fmt.Errorf("faults: plan text must start with a \"plan\" header")
	}
	head := strings.Fields(lines[0])
	if len(head) != 3 || !strings.HasPrefix(head[2], "seed=") {
		return pl, fmt.Errorf("faults: malformed plan header %q", lines[0])
	}
	pl.Name = head[1]
	seed, err := strconv.ParseInt(strings.TrimPrefix(head[2], "seed="), 10, 64)
	if err != nil {
		return pl, fmt.Errorf("faults: bad seed in %q: %w", lines[0], err)
	}
	pl.Seed = seed
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return pl, fmt.Errorf("faults: malformed event line %q", line)
		}
		at, err := time.ParseDuration(f[0])
		if err != nil {
			return pl, fmt.Errorf("faults: bad time in %q: %w", line, err)
		}
		kind, ok := kindFromString(f[1])
		if !ok {
			return pl, fmt.Errorf("faults: unknown kind in %q", line)
		}
		ev := Event{At: at, Kind: kind, Target: f[2]}
		for _, opt := range f[3:] {
			k, v, found := strings.Cut(opt, "=")
			i := slices.IndexFunc(params, func(p *param) bool { return p.key == k })
			if !found || i < 0 {
				return pl, fmt.Errorf("faults: unknown option %q in %q", opt, line)
			}
			if err := params[i].parse(&ev, v); err != nil {
				return pl, fmt.Errorf("faults: bad %s in %q: %w", k, line, err)
			}
		}
		pl.Events = append(pl.Events, ev)
	}
	if err := pl.Validate(); err != nil {
		return pl, err
	}
	return pl, nil
}

// Handler executes one fault kind against the live topology. Inject flips
// the failure on; Heal flips it off (called only for events with Heal > 0).
// Either may return an error (unknown target, fault already active), which
// the injector records in its log and error counter rather than panicking:
// a chaos campaign should report a bad plan, not crash the simulator.
type Handler struct {
	Inject func(ev Event) error
	Heal   func(ev Event) error
}

// Injector schedules a Plan's events on the simulation clock and runs them
// through registered handlers, keeping deterministic per-kind accounting.
type Injector struct {
	eng      *sim.Engine
	handlers map[Kind]Handler

	injected map[Kind]int64
	healed   map[Kind]int64
	errors   int64
	active   int64
	recovery map[Kind]*metrics.Histogram
	log      []string
	events   *obs.TraceRing
}

// NewInjector creates an injector bound to an engine.
func NewInjector(eng *sim.Engine) *Injector {
	in := &Injector{
		eng:      eng,
		handlers: make(map[Kind]Handler),
		injected: make(map[Kind]int64),
		healed:   make(map[Kind]int64),
		recovery: make(map[Kind]*metrics.Histogram),
	}
	for _, k := range Kinds() {
		in.recovery[k] = &metrics.Histogram{}
	}
	return in
}

// Handle registers the handler for one fault kind.
func (in *Injector) Handle(k Kind, h Handler) { in.handlers[k] = h }

// Schedule validates the plan and arms every event (and its heal) on the
// simulation clock. It can be called before or during the run; events in
// the past of the sim clock fire immediately on the next engine step.
func (in *Injector) Schedule(pl Plan) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	sorted := pl.Sorted()
	for _, ev := range sorted.Events {
		if _, ok := in.handlers[ev.Kind]; !ok {
			return fmt.Errorf("faults: no handler registered for %v (target %s)", ev.Kind, ev.Target)
		}
	}
	for _, ev := range sorted.Events {
		ev := ev
		in.eng.At(ev.At, func() { in.inject(ev) })
		if ev.Heal > 0 {
			in.eng.At(ev.At+ev.Heal, func() { in.heal(ev) })
		}
	}
	return nil
}

func (in *Injector) inject(ev Event) {
	in.injected[ev.Kind]++
	in.active++
	line := fmt.Sprintf("%v inject %v %s", in.eng.Now(), ev.Kind, ev.Target)
	if err := in.handlers[ev.Kind].Inject(ev); err != nil {
		in.errors++
		line += " ERR " + err.Error()
	}
	in.log = append(in.log, line)
	in.events.Emit(in.eng.Now(), "faults", line)
}

func (in *Injector) heal(ev Event) {
	in.healed[ev.Kind]++
	in.active--
	line := fmt.Sprintf("%v heal %v %s", in.eng.Now(), ev.Kind, ev.Target)
	h := in.handlers[ev.Kind]
	if h.Heal == nil {
		in.errors++
		line += " ERR no heal handler"
	} else if err := h.Heal(ev); err != nil {
		in.errors++
		line += " ERR " + err.Error()
	}
	in.log = append(in.log, line)
	in.events.Emit(in.eng.Now(), "faults", line)
}

// RecordRecovery feeds the per-kind recovery-time histogram: the observed
// interval from a fault's injection until the pod's service was whole
// again, as measured by whoever can see it (the chaos experiment's
// probes). Separate from heal time — recovery often completes before the
// fault heals (failover) or after (post-heal re-registration).
func (in *Injector) RecordRecovery(k Kind, d time.Duration) {
	if h, ok := in.recovery[k]; ok {
		h.Record(d)
	}
}

// Recovery returns the recovery-time histogram for a kind (nil if unknown).
func (in *Injector) Recovery(k Kind) *metrics.Histogram { return in.recovery[k] }

// Injected returns how many events of a kind have fired.
func (in *Injector) Injected(k Kind) int64 { return in.injected[k] }

// Healed returns how many events of a kind have auto-healed.
func (in *Injector) Healed(k Kind) int64 { return in.healed[k] }

// Active returns the number of currently-outstanding (unhealed) faults.
func (in *Injector) Active() int64 { return in.active }

// Errors returns how many handler invocations failed.
func (in *Injector) Errors() int64 { return in.errors }

// Log returns the deterministic injection log: one line per inject/heal
// action, stamped with virtual time, in execution order.
func (in *Injector) Log() []string {
	out := make([]string, len(in.log))
	copy(out, in.log)
	return out
}

// RegisterObs registers the faults.* metric family: per-kind injected/
// healed counters and recovery histograms, the active gauge, and the
// handler error counter. Also hooks the injector to the registry's trace
// ring so every action leaves an event.
func (in *Injector) RegisterObs(r *obs.Registry, prefix string) {
	r.Gauge(prefix+"/active", func() float64 { return float64(in.active) })
	r.Counter(prefix+"/errors", func() int64 { return in.errors })
	for _, k := range Kinds() {
		k := k
		kpfx := prefix + "/" + k.String()
		r.Counter(kpfx+"/injected", func() int64 { return in.injected[k] })
		r.Counter(kpfx+"/healed", func() int64 { return in.healed[k] })
		r.Histogram(kpfx+"/recovery", in.recovery[k])
	}
	in.events = r.Events
}
